"""General tree queries with arbitrary output attributes (paper §7).

``tree_query`` implements Theorem 6 (load ``O(N·OUT^{2/3}/p + (N+OUT)/p)``):

1. **Reduction** — absorb relations with a private non-output attribute by
   pre-aggregating them into a neighbour (Figure 2, left→middle).  After
   this every leaf attribute is an output attribute.
2. **Twig decomposition** — cut at every non-leaf output attribute; each
   twig has output = leaves, and the final answer is the free-connex join
   of the twig results (Figure 2, right).
3. **Twig evaluation** — matmul/line/star/star-like twigs go to §3–§6;
   a general twig is processed by the skeleton divide & conquer (§7.1):

   a. compute, for every non-output skeleton leaf ``B``, the statistics
      ``x(b)`` (combinations its hanging star-like component ``T_B`` can
      produce) and ``y(b)`` (an Algorithm-1 under-estimate of the
      combinations the rest of the query can produce);
   b. split into heavy/light subqueries per ``B`` (Lemma 13: a non-empty
      subquery has ≥ 1 light ``B``);
   c. for every light ``B``, materialize
      ``Q_B = Σ_{V_B∩ȳ} ⋈ T_B`` as one relation ``R(B, ⟨arm ends⟩)``
      (size ≤ N·√OUT by Lemma 15), replace ``T_B`` by that edge, and
      recurse on the smaller twig.

Combined ``⟨…⟩`` attributes hold tuples of their component values; they are
expanded back into flat columns before a twig returns its result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..data.query import TreeQuery
from ..data.relation import DistRelation, annotation_of
from ..data.treeops import reduction_plan, skeleton_info, twig_decomposition
from ..mpc.distributed import Distributed
from ..primitives.dangling import remove_dangling
from ..primitives.degrees import label_tuples, select_labelled
from ..primitives.reduce_by_key import reduce_by_key
from ..semiring import Semiring
from .arms import extract_arms
from .line import line_query
from .star import binarize, expand_columns, join_group_on_centre, star_query
from .starlike import arm_reach_estimates, shrink_arm, starlike_query
from ..backends.columnar import FLOAT_MAX_PROFILE
from .two_way_join import aggregate_relation, join_aggregate_pair, vector_profile

__all__ = ["tree_query", "twig_eval"]


@dataclass
class _Context:
    """Shared evaluation state: semiring, salts, combined-attr expansions."""

    semiring: Semiring
    salt: int = 0
    expansions: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    counter: int = 0

    def fresh_salt(self) -> int:
        """The next salt.  Stateful: every draw shifts all later salts (and
        combined-attribute names), hence every later hash route and load —
        the three labelling sites below keep a draw whose value nothing
        reads (it fed ``attach_by_key``'s dead ``salt``) for that reason."""
        self.counter += 1
        return self.salt + 1000 * self.counter

    def fresh_comb(self, base: str, components: Tuple[str, ...]) -> str:
        self.counter += 1
        name = f"__comb{self.counter}_{base}"
        self.expansions[name] = components
        return name

    def expand_attrs(self, attrs: Sequence[str]) -> List[str]:
        """Fully expand combined attributes into original attribute names."""
        flat: List[str] = []
        for attr in attrs:
            if attr in self.expansions:
                flat.extend(self.expand_attrs(self.expansions[attr]))
            else:
                flat.append(attr)
        return flat


def tree_query(
    query: TreeQuery,
    relations: Dict[str, DistRelation],
    semiring: Semiring,
    salt: int = 0,
) -> DistRelation:
    """Evaluate an arbitrary tree join-aggregate query.

    Result schema: output attributes in sorted order (empty schema for a
    full aggregate, which yields at most one tuple with the grand total).
    """
    ctx = _Context(semiring=semiring, salt=salt)
    relations = remove_dangling(query, relations)
    if any(rel.total_size == 0 for rel in relations.values()):
        view = next(iter(relations.values())).view
        return DistRelation(tuple(sorted(query.output)), Distributed.empty(view))

    # ---- Step 1: reduction. --------------------------------------------------
    steps, reduced = reduction_plan(query)
    live = dict(relations)
    for step in steps:
        absorbed = live.pop(step.relation)
        target = live[step.target]
        table = reduce_by_key(
            absorbed.data,
            absorbed.key_fn((step.shared_attr,)),
            annotation_of,
            semiring.add,
            salt=ctx.fresh_salt(),
            profile=vector_profile(absorbed.view, semiring),
        ).map_items(lambda pair: (pair[0][0], pair[1]))
        ctx.fresh_salt()  # unread; keeps the later salts where they were
        labelled = label_tuples(target, table, step.shared_attr)
        live[step.target] = target.with_data(
            labelled.filter_items(lambda entry: entry[1] is not None).map_items(
                lambda entry: (entry[0][0], semiring.mul(entry[0][1], entry[1]))
            )
        )

    out_schema = tuple(sorted(query.output))
    if reduced.n == 1:
        (final_name,) = [name for name, _ in reduced.relations]
        return aggregate_relation(
            live[final_name], out_schema, semiring, ctx.fresh_salt()
        )

    # ---- Step 2: twigs. --------------------------------------------------------
    twigs = twig_decomposition(reduced)
    results: List[DistRelation] = []
    for twig in twigs:
        twig_rels = {name: live[name] for name, _ in twig.relations}
        results.append(twig_eval(twig, twig_rels, ctx))

    # ---- Step 3: free-connex join of the twig results. --------------------------
    joined = results[0]
    seen_attrs: Set[str] = set(joined.schema)
    for part in results[1:]:
        keep = tuple(sorted(seen_attrs | set(part.schema)))
        joined = join_aggregate_pair(joined, part, keep, semiring, ctx.fresh_salt())
        seen_attrs |= set(part.schema)
    return aggregate_relation(joined, out_schema, semiring, ctx.fresh_salt())


def twig_eval(
    twig: TreeQuery, relations: Dict[str, DistRelation], ctx: _Context
) -> DistRelation:
    """Evaluate one twig; result schema = sorted(expanded twig outputs)."""
    semiring = ctx.semiring
    out_schema = tuple(sorted(ctx.expand_attrs(sorted(twig.output))))

    if twig.n == 1:
        (name,) = [n for n, _ in twig.relations]
        return _expand_and_aggregate(relations[name], ctx, out_schema)

    cls = twig.classify()
    if cls in ("matmul", "line"):
        order = twig.path_order()
        rels = [
            relations[twig.relation_between(x, y)] for x, y in zip(order, order[1:])
        ]
        result = line_query(rels, order, semiring, ctx.fresh_salt())
        return _expand_and_aggregate(result, ctx, out_schema)
    if cls == "star":
        centre = next(
            a for a in twig.attributes
            if all(a in attrs for _n, attrs in twig.relations)
        )
        arm_attrs = []
        rels = []
        for name, attrs in twig.relations:
            arm = attrs[0] if attrs[1] == centre else attrs[1]
            arm_attrs.append(arm)
            rels.append(relations[name])
        result = star_query(rels, arm_attrs, centre, semiring, ctx.fresh_salt())
        return _expand_and_aggregate(result, ctx, out_schema)
    if cls == "star-like":
        result = starlike_query(twig, relations, semiring, ctx.fresh_salt())
        return _expand_and_aggregate(result, ctx, out_schema)

    return _twig_divide_conquer(twig, relations, ctx, out_schema)


# -- §7.1: skeleton divide & conquer -----------------------------------------------


def _twig_divide_conquer(
    twig: TreeQuery,
    relations: Dict[str, DistRelation],
    ctx: _Context,
    out_schema: Tuple[str, ...],
) -> DistRelation:
    semiring = ctx.semiring
    info = skeleton_info(twig)
    view = next(iter(relations.values())).view

    # ---- Step 1: statistics x(b), y(b) per non-output skeleton leaf B. -------
    x_tables: Dict[str, Distributed] = {}
    for root in info.branch_roots:
        x_tables[root] = _branch_x_table(info.branches[root], root, relations, ctx)
    y_tables: Dict[str, Distributed] = {}
    for root in info.branch_roots:
        y_tables[root] = _estimate_out_tree(root, info, x_tables, relations, ctx)

    side_tables: Dict[str, Distributed] = {}
    for root in info.branch_roots:
        merged = (
            x_tables[root].map_items(lambda pair: (pair[0], ("x", pair[1])))
            .concat(y_tables[root].map_items(lambda pair: (pair[0], ("y", pair[1]))))
        )
        profiles = reduce_by_key(
            merged, lambda pair: pair[0], lambda pair: (pair[1],),
            lambda a, b: a + b, salt=ctx.fresh_salt(),
        )

        def side_of(entries: Tuple[Tuple[str, float], ...]) -> str:
            stats = dict(entries)
            return "heavy" if stats.get("x", 1.0) > stats.get("y", 1.0) else "light"

        side_tables[root] = profiles.map_items(
            lambda pair: (pair[0], side_of(pair[1]))
        )

    # ---- Step 2: divide & conquer over heavy/light patterns. ------------------
    outputs: List[Distributed] = []
    roots = list(info.branch_roots)
    for pattern in itertools.product(("light", "heavy"), repeat=len(roots)):
        assignment = dict(zip(roots, pattern))
        restricted = _restrict_pattern(twig, relations, side_tables, assignment, ctx)
        restricted = remove_dangling(twig, restricted)
        if any(rel.total_size == 0 for rel in restricted.values()):
            continue
        light_roots = [root for root in roots if assignment[root] == "light"]
        if not light_roots:
            # Lemma 13 says this is empty with exact statistics; with
            # estimates it may survive — force progress by contracting the
            # B with the smallest x/y gap (correctness is unaffected).
            light_roots = [roots[0]]

        new_relations: List[Tuple[str, Tuple[str, str]]] = list(info.residual_relations)
        new_rels_data: Dict[str, DistRelation] = {
            name: restricted[name] for name, _ in info.residual_relations
        }
        new_output: Set[str] = set(twig.output)
        for root in roots:
            branch = info.branches[root]
            if root in light_roots:
                comb_rel, comb_attr, comb_name = _materialize_branch(
                    branch, root, restricted, ctx
                )
                new_relations.append((comb_name, (root, comb_attr)))
                new_rels_data[comb_name] = comb_rel
                new_output -= set(branch.output)
                new_output.add(comb_attr)
            else:
                for name, attrs in branch.relations:
                    new_relations.append((name, attrs))
                    new_rels_data[name] = restricted[name]

        new_query = TreeQuery(tuple(new_relations), frozenset(new_output))
        result = twig_eval(new_query, new_rels_data, ctx)
        # twig_eval returns fully expanded columns; align to out_schema.
        outputs.append(result.reordered(out_schema).data)

    combined = DistRelation(out_schema, Distributed.union(view, outputs))
    return aggregate_relation(combined, out_schema, semiring, ctx.fresh_salt())


def _branch_x_table(
    branch: TreeQuery,
    root: str,
    relations: Dict[str, DistRelation],
    ctx: _Context,
) -> Distributed:
    """x(b) = ∏ over arms of T_B of d_arm(b) (KMV estimates, §7.1 step 1)."""
    tables = [
        arm_reach_estimates(arm, relations, ctx.fresh_salt())
        for arm in extract_arms(branch, root)
    ]
    return reduce_by_key(
        Distributed.union(tables[0].view, tables),
        lambda pair: pair[0], lambda pair: pair[1],
        lambda a, b: a * b, salt=ctx.fresh_salt(),
    )


def _estimate_out_tree(
    root: str,
    info,
    x_tables: Dict[str, Distributed],
    relations: Dict[str, DistRelation],
    ctx: _Context,
) -> Distributed:
    """Algorithm 1 (EstimateOutTree): bottom-up max-product over the skeleton.

    ``y(c) = ∏_{children C'} max_{c' ⋈ c} y(c')`` with ``y = x`` at the
    non-output leaves and ``y = 1`` at output leaves.  Returns (b, y(b)) for
    the root's values.
    """
    adjacency: Dict[str, List[Tuple[str, str]]] = {}
    for name, (x, y) in info.residual_relations:
        adjacency.setdefault(x, []).append((name, y))
        adjacency.setdefault(y, []).append((name, x))

    def subtree(attr: str, via: Optional[str]) -> Optional[Distributed]:
        if attr != root and attr in x_tables:
            return x_tables[attr]
        child_edges = [(n, other) for n, other in adjacency.get(attr, []) if n != via]
        if not child_edges:
            return None  # output leaf: constant 1
        factors: List[Distributed] = []
        for rel_name, child_attr in child_edges:
            child_table = subtree(child_attr, rel_name)
            if child_table is None:
                continue
            rel = relations[rel_name]
            parent_index = rel.attr_index(attr)
            ctx.fresh_salt()  # unread; keeps the later salts where they were
            pairs = (
                label_tuples(rel, child_table, child_attr)
                .filter_items(lambda entry: entry[1] is not None)
                .map_items(lambda entry, i=parent_index: (entry[0][0][i], entry[1]))
            )
            factors.append(
                reduce_by_key(pairs, lambda pair: pair[0], lambda pair: pair[1],
                              max, salt=ctx.fresh_salt(),
                              profile=FLOAT_MAX_PROFILE)
            )
        if not factors:
            return None
        return reduce_by_key(
            Distributed.union(factors[0].view, factors),
            lambda pair: pair[0], lambda pair: pair[1],
            lambda a, b: a * b, salt=ctx.fresh_salt(),
        )

    table = subtree(root, None)
    if table is None:  # the skeleton carries no information: y ≡ 1
        rel_name, other = adjacency[root][0]
        rel = relations[rel_name]
        ones = reduce_by_key(
            rel.data, rel.key_fn((root,)), lambda _i: 1.0, lambda a, _b: a,
            salt=ctx.fresh_salt(), profile=FLOAT_MAX_PROFILE,
        )
        return ones.map_items(lambda pair: (pair[0][0], 1.0))
    return table


def _restrict_pattern(
    twig: TreeQuery,
    relations: Dict[str, DistRelation],
    side_tables: Dict[str, Distributed],
    assignment: Dict[str, str],
    ctx: _Context,
) -> Dict[str, DistRelation]:
    """Filter every B-incident relation to the pattern's side of dom(B)."""
    restricted = dict(relations)
    for root, side in assignment.items():
        for rel_index, _neighbour in twig.adjacency[root]:
            name = twig.relations[rel_index][0]
            rel = restricted[name]
            ctx.fresh_salt()  # unread; keeps the later salts where they were
            restricted[name] = select_labelled(
                rel, label_tuples(rel, side_tables[root], root, default="light"),
                lambda label: label == side,
            )
    return restricted


def _materialize_branch(
    branch: TreeQuery,
    root: str,
    relations: Dict[str, DistRelation],
    ctx: _Context,
) -> Tuple[DistRelation, str, str]:
    """Q_B (§7.1 step 2): shrink T_B's arms, join them on B, and fold the arm
    ends into one combined attribute.  Returns (relation over (B, comb),
    comb attribute name, fresh relation name)."""
    semiring = ctx.semiring
    arms = extract_arms(branch, root)
    arm_ends = [arm[-1][2] for arm in arms]
    shrunk = [
        shrink_arm(arm, relations, semiring, ctx.fresh_salt()).reordered(
            (arm_ends[i], root)
        )
        for i, arm in enumerate(arms)
    ]
    joined, joined_attrs = join_group_on_centre(
        shrunk, arm_ends, root, semiring, ctx.fresh_salt()
    )
    comb_attr = ctx.fresh_comb(root, tuple(joined_attrs))
    combined = binarize(joined, joined_attrs, comb_attr, root)
    rel_name = f"__Q_{root}_{ctx.counter}"
    return combined.reordered((root, comb_attr)), comb_attr, rel_name


# -- result shaping ------------------------------------------------------------------


def _expand_and_aggregate(
    rel: DistRelation, ctx: _Context, out_schema: Tuple[str, ...]
) -> DistRelation:
    """Expand combined columns into flat ones and aggregate to out_schema;
    code columns expand into code columns."""
    needs_expansion = any(attr in ctx.expansions for attr in rel.schema)
    if not needs_expansion:
        if rel.schema == out_schema:
            return rel
        return aggregate_relation(rel, out_schema, ctx.semiring, ctx.fresh_salt())

    def expand_value(attr: str, value: Any, bound: Dict[str, Any]) -> None:
        if attr in ctx.expansions:
            for component, part in zip(ctx.expansions[attr], value):
                expand_value(component, part, bound)
        else:
            bound[attr] = value

    schema = rel.schema

    def reshape(item):
        bound: Dict[str, Any] = {}
        for attr, value in zip(schema, item[0]):
            expand_value(attr, value, bound)
        return (tuple(bound[a] for a in out_schema), item[1])

    flat = expand_columns(rel.data, schema, ctx.expansions, out_schema)
    if flat is None:
        flat = rel.data.map_items(reshape)
    return aggregate_relation(
        DistRelation(out_schema, flat), out_schema, ctx.semiring, ctx.fresh_salt()
    )
