//! Tree contraction (§5.3): evaluating a rooted binary expression tree in
//! `O(log n)` oblivious rounds of geometrically shrinking work.
//!
//! The algorithm is Kosaraju–Delcher-style SHUNT raking in the work-time
//! framework, realized with oblivious primitives as Theorem 4.1 is applied
//! "in a slightly non-blackbox fashion":
//!
//! * every round rakes all odd-labelled leaves — first those that are left
//!   children, then right children — maintaining linear edge functions
//!   `f(x) = a·x + b` (closed under `+` and `×` with constants, wrapping);
//! * all pointer chasing (parent records, sibling updates, grandparent
//!   child pointers, kill flags) goes through **oblivious send-receive**
//!   with fixed-size channels (non-participants emit dummy keys);
//! * after each round the dead nodes are compacted away with an oblivious
//!   sort, shrinking the live array to the *publicly known* size
//!   `2·⌊L/2⌋ − 1` — the geometric decrease that gives `O(W_sort(n))`
//!   total work and `O(log n · T_sort(n))` span, the Table 1 "TC†" row;
//! * the initial in-order leaf labels are themselves computed obliviously,
//!   with a local-rule Euler tour over the (parent, left, right) records
//!   and one oblivious list ranking.
//!
//! The per-round sequence of sizes depends only on the leaf count, so the
//! whole trace is a function of `(n, seed)` — checked by the trace test.

use crate::gen::{ExprNode, ExprTree};
use crate::listrank::list_rank_oblivious;
use fj::Ctx;
use metrics::{ScratchPool, Tracked};
use obliv_core::scan::Schedule;
use obliv_core::slot::{Item, Slot};
use obliv_core::{send_receive, Engine, OrbaParams, TagCell};

const NONE: u64 = u64::MAX;
/// Dummy-key base for send-receive channels (above any node id).
const DUMMY: u64 = 1 << 48;

/// Working record for one tree node.
#[derive(Clone, Copy, Debug, Default)]
struct CNode {
    id: u64,
    parent: u64,
    left: u64,
    right: u64,
    /// 0 = this node is its parent's left child, 1 = right.
    side: u8,
    /// 0 = add, 1 = mul (internal nodes only).
    op: u8,
    is_leaf: bool,
    alive: bool,
    /// Edge function to the parent: f(x) = a·x + b (wrapping).
    a: u64,
    b: u64,
    /// Leaf value.
    val: u64,
    /// In-order leaf label (1-based; 0 for internal nodes).
    label: u64,
}

/// Obliviously evaluate `tree` (wrapping arithmetic). Matches
/// [`ExprTree::eval`].
pub fn contract_eval<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    tree: &ExprTree,
    engine: Engine,
    seed: u64,
) -> u64 {
    let n = tree.nodes.len();
    if n == 1 {
        if let ExprNode::Leaf(v) = tree.nodes[0] {
            return v;
        }
        unreachable!("single-node tree must be a leaf");
    }

    // Build records.
    let mut nodes: Vec<CNode> = (0..n)
        .map(|i| {
            let mut r = CNode {
                id: i as u64,
                parent: NONE,
                left: NONE,
                right: NONE,
                side: 0,
                op: 0,
                is_leaf: true,
                alive: true,
                a: 1,
                b: 0,
                val: 0,
                label: 0,
            };
            match tree.nodes[i] {
                ExprNode::Leaf(v) => r.val = v,
                ExprNode::Op(op, l, rgt) => {
                    r.is_leaf = false;
                    r.op = op;
                    r.left = l as u64;
                    r.right = rgt as u64;
                }
            }
            r
        })
        .collect();
    for i in 0..n {
        if let ExprNode::Op(_, l, rgt) = tree.nodes[i] {
            nodes[l].parent = i as u64;
            nodes[l].side = 0;
            nodes[rgt].parent = i as u64;
            nodes[rgt].side = 1;
        }
    }

    // In-order leaf labels via a local-rule Euler tour + oblivious LR.
    assign_leaf_labels(c, scratch, &mut nodes, engine, seed);

    let mut leaves = nodes.iter().filter(|r| r.is_leaf).count();
    while leaves > 1 {
        for side in [0u8, 1] {
            rake_substep(c, scratch, &mut nodes, side, engine);
        }
        // Relabel the surviving (even-labelled) leaves and compact to the
        // public size 2⌊L/2⌋ − 1.
        for r in nodes.iter_mut() {
            if r.alive && r.is_leaf {
                debug_assert_eq!(r.label % 2, 0, "odd leaf survived a round");
                r.label /= 2;
            }
        }
        c.charge_par(nodes.len() as u64);
        leaves /= 2;
        compact_nodes(c, scratch, &mut nodes, 2 * leaves - 1, engine);
    }

    let last = nodes
        .iter()
        .find(|r| r.alive)
        .expect("one live node remains");
    debug_assert!(last.is_leaf);
    last.a.wrapping_mul(last.val).wrapping_add(last.b)
}

/// One rake substep: every live odd-labelled leaf on the given `side`
/// shunts itself and its parent out of the tree.
fn rake_substep<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    nodes: &mut [CNode],
    side: u8,
    engine: Engine,
) {
    let live = nodes.len();

    // Fetch parent records (all per-round working arrays are leased: the
    // contraction performs O(log n) rounds and must not malloc per round).
    let mut recs = scratch.lease(live, (0u64, CNode::default()));
    let mut parent_q = scratch.lease(live, 0u64);
    for (i, r) in nodes.iter().enumerate() {
        recs[i] = (r.id, *r);
        parent_q[i] = if r.parent == NONE {
            DUMMY + r.id
        } else {
            r.parent
        };
    }
    let parents = send_receive(c, scratch, &recs, &parent_q, engine, Schedule::Tree);

    // Decide rakes and emit the three update channels (dummies keep every
    // channel at the fixed size `live`).
    let mut sib_src = scratch.lease(live, (0u64, (0u64, 0u64, 0u64, 0u64)));
    let mut child_src = scratch.lease(live, (0u64, 0u64));
    let mut kill_src = scratch.lease(live, (0u64, 0u64));
    let mut self_rake = scratch.lease(live, false);

    for (i, r) in nodes.iter().enumerate() {
        let mut sib = (DUMMY + r.id, (0, 0, 0, 0));
        let mut child = (DUMMY + r.id, 0);
        let mut kill = (DUMMY + r.id, 0);
        if let Some(p) = parents[i] {
            let rake = r.alive && r.is_leaf && r.label % 2 == 1 && r.side == side;
            if rake {
                self_rake[i] = true;
                let s_id = if r.side == 0 { p.right } else { p.left };
                // The raked constant: c = f_u(val_u). The sibling applies
                // val_p = op(c, f_s(x)) composed with f_p on its side of
                // the channel.
                let c_val = r.a.wrapping_mul(r.val).wrapping_add(r.b);
                kill = (p.id, 1);
                child = if p.parent == NONE {
                    (DUMMY + r.id, 0)
                } else {
                    (p.parent * 2 + p.side as u64, s_id)
                };
                sib = (s_id, (c_val, p.op as u64, p.a, p.b));
            }
        }
        sib_src[i] = sib;
        child_src[i] = child;
        kill_src[i] = kill;
    }
    c.charge_par(live as u64);

    // Route the channels.
    let mut ids = scratch.lease(live, 0u64);
    let mut left_q = scratch.lease(live, 0u64);
    let mut right_q = scratch.lease(live, 0u64);
    for (i, r) in nodes.iter().enumerate() {
        ids[i] = r.id;
        left_q[i] = r.id * 2;
        right_q[i] = r.id * 2 + 1;
    }
    let sib_res = send_receive(c, scratch, &sib_src, &ids, engine, Schedule::Tree);
    let left_res = send_receive(c, scratch, &child_src, &left_q, engine, Schedule::Tree);
    let right_res = send_receive(c, scratch, &child_src, &right_q, engine, Schedule::Tree);
    let kill_res = send_receive(c, scratch, &kill_src, &ids, engine, Schedule::Tree);

    // Apply updates. The sibling channel carries (c_val, op, p.a, p.b) and
    // the new parent/side arrive via the parent record we already fetched.
    for i in 0..nodes.len() {
        if self_rake[i] {
            nodes[i].alive = false;
        }
        if kill_res[i].is_some() {
            nodes[i].alive = false;
        }
        if let Some((c_val, op, pa, pb)) = sib_res[i] {
            // s's combined function: first its own f_s, then the parent op
            // with the raked constant, then p's edge function.
            let (na, nb) = if op == 0 {
                (nodes[i].a, nodes[i].b.wrapping_add(c_val))
            } else {
                (
                    c_val.wrapping_mul(nodes[i].a),
                    c_val.wrapping_mul(nodes[i].b),
                )
            };
            nodes[i].a = pa.wrapping_mul(na);
            nodes[i].b = pa.wrapping_mul(nb).wrapping_add(pb);
            // Reattach: the raker knew p.parent/p.side; recover them from
            // the parent we fetched for the sibling? No — the sibling's own
            // parent record IS p, fetched above.
            if let Some(p) = parents[i] {
                nodes[i].parent = p.parent;
                nodes[i].side = p.side;
            }
        }
        if let Some(new_child) = left_res[i] {
            nodes[i].left = new_child;
        }
        if let Some(new_child) = right_res[i] {
            nodes[i].right = new_child;
        }
    }
    c.charge_par(nodes.len() as u64);
}

/// Oblivious compaction of dead nodes down to `target` live records.
fn compact_nodes<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    nodes: &mut Vec<CNode>,
    target: usize,
    engine: Engine,
) {
    let mut slots = scratch.lease(nodes.len(), Slot::<CNode>::filler());
    for (slot, (i, r)) in slots.iter_mut().zip(nodes.iter().enumerate()) {
        *slot = Slot::real(Item::new(0, *r), 0);
        slot.sk = if r.alive { i as u128 } else { u128::MAX - 1 };
    }
    {
        let mut t = Tracked::new(c, &mut slots);
        engine.sort_slots(c, scratch, &mut t);
    }
    let live: Vec<CNode> = slots[..target].iter().map(|s| s.item.val).collect();
    debug_assert!(live.iter().all(|r| r.alive), "compaction target too large");
    *nodes = live;
}

/// In-order leaf labels (1-based) via a local-rule Euler tour:
/// `down(v) = 2v`, `up(v) = 2v+1`; successors follow the classic binary
/// tree traversal rules, each computable from the node's own record.
fn assign_leaf_labels<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    nodes: &mut [CNode],
    engine: Engine,
    seed: u64,
) {
    let n = nodes.len();
    let l = 2 * n;
    let mut succ = scratch.lease(l, 0usize);
    for r in nodes.iter() {
        let v = r.id as usize;
        // down(v): enter v from its parent.
        succ[2 * v] = if r.is_leaf {
            2 * v + 1
        } else {
            2 * (r.left as usize)
        };
        // up(v): leave v toward its parent.
        succ[2 * v + 1] = if r.parent == NONE {
            2 * v + 1 // terminal: the tour ends when the root closes
        } else {
            let p = r.parent as usize;
            if r.side == 0 {
                // From the left child, descend into the right sibling. The
                // sibling id is not local, so route through the parent's
                // down-arc? No: store it — we know only ids here, so fetch
                // via the parent pointer below.
                usize::MAX // patched in the fix-up pass
            } else {
                2 * p + 1
            }
        };
    }
    c.charge_par(n as u64);
    // Fix-up: successors of left-children's up-arcs need the sibling id —
    // one oblivious send-receive (sources: parent id -> right child id).
    let sib_sources: Vec<(u64, u64)> = nodes.iter().map(|r| (r.id, r.right)).collect();
    let sib_q: Vec<u64> = nodes
        .iter()
        .map(|r| {
            if r.parent == NONE {
                DUMMY + r.id
            } else {
                r.parent
            }
        })
        .collect();
    let sib_res = send_receive(c, scratch, &sib_sources, &sib_q, engine, Schedule::Tree);
    for (i, r) in nodes.iter().enumerate() {
        let v = r.id as usize;
        if succ[2 * v + 1] == usize::MAX {
            let right_sib = sib_res[i].expect("left child has a parent") as usize;
            succ[2 * v + 1] = 2 * right_sib;
        }
    }

    // Rank the tour; smaller rank = later in the tour.
    let params = OrbaParams::for_n(l);
    let rank = list_rank_oblivious(c, scratch, &succ, &vec![1u64; l], params, engine, seed);
    let pos: Vec<u64> = rank
        .iter()
        .map(|&r| (l as u64 - 1).wrapping_sub(r))
        .collect();

    // Leaves sorted by entry position get labels 1..L; route back by id.
    // The sort rides in packed 32-byte `TagCell`s (DESIGN.md §10):
    // tag = tour position for leaves (distinct) / `u128::MAX - 1` for
    // internal nodes (order among them is irrelevant — their labels are
    // never read), aux = node id.
    let mut cells = scratch.lease(n, TagCell::filler());
    for (cell, r) in cells.iter_mut().zip(nodes.iter()) {
        let tag = if r.is_leaf {
            pos[2 * r.id as usize] as u128
        } else {
            u128::MAX - 1
        };
        *cell = TagCell::new(tag, r.id as u128);
    }
    {
        let mut t = Tracked::new(c, &mut cells);
        engine.sort_cells(c, scratch, &mut t);
    }
    let label_sources: Vec<(u64, u64)> = cells
        .iter()
        .enumerate()
        .map(|(k, s)| (s.aux as u64, k as u64 + 1))
        .collect();
    let ids: Vec<u64> = nodes.iter().map(|r| r.id).collect();
    let labels = send_receive(c, scratch, &label_sources, &ids, engine, Schedule::Tree);
    let leaf_count = nodes.iter().filter(|r| r.is_leaf).count() as u64;
    for (i, r) in nodes.iter_mut().enumerate() {
        if r.is_leaf {
            let lab = labels[i].expect("leaf labelled");
            debug_assert!(lab >= 1 && lab <= leaf_count);
            r.label = lab;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_expr_tree;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    #[test]
    fn evaluates_tiny_trees() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        // (2 + 3) * 4 = 20
        let t = ExprTree {
            nodes: vec![
                ExprNode::Leaf(2),
                ExprNode::Leaf(3),
                ExprNode::Leaf(4),
                ExprNode::Op(0, 0, 1),
                ExprNode::Op(1, 3, 2),
            ],
            root: 4,
        };
        assert_eq!(contract_eval(&c, &sp, &t, Engine::BitonicRec, 1), 20);
        // Single leaf.
        let single = ExprTree {
            nodes: vec![ExprNode::Leaf(7)],
            root: 0,
        };
        assert_eq!(contract_eval(&c, &sp, &single, Engine::BitonicRec, 1), 7);
    }

    #[test]
    fn matches_direct_eval_on_random_trees() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for (leaves, seed) in [(2usize, 1u64), (3, 2), (8, 3), (17, 4), (64, 5), (100, 6)] {
            let t = random_expr_tree(leaves, seed);
            let got = contract_eval(&c, &sp, &t, Engine::BitonicRec, seed);
            assert_eq!(got, t.eval(), "leaves = {leaves}, seed = {seed}");
        }
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let t = random_expr_tree(80, 11);
        let sp = ScratchPool::new();
        let got = pool.run(|c| contract_eval(c, &sp, &t, Engine::BitonicRec, 2));
        assert_eq!(got, t.eval());
    }

    #[test]
    fn trace_length_depends_only_on_leaf_count() {
        // Tree contraction embeds list ranking on an ORP-permuted array, so
        // (exactly as §5.1 argues) the *distribution* of the trace — not a
        // single trace — is input-independent. Finite checks: the trace
        // length is a function of the leaf count alone, the trace is
        // deterministic for a fixed (input, seed), and leaf *values* never
        // influence the trace.
        let run = |t: &ExprTree, seed: u64| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                contract_eval(c, &sp, t, Engine::BitonicRec, seed);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let t1 = random_expr_tree(32, 100);
        let t2 = random_expr_tree(32, 200);
        assert_eq!(
            run(&t1, 77).1,
            run(&t2, 77).1,
            "trace length leaked the shape"
        );
        assert_eq!(run(&t1, 77), run(&t1, 77), "trace not deterministic");
        // Same shape, different leaf values: traces must be identical.
        let mut t3 = t1.clone();
        for node in t3.nodes.iter_mut() {
            if let ExprNode::Leaf(v) = node {
                *v = v.wrapping_mul(31).wrapping_add(17);
            }
        }
        assert_eq!(
            run(&t1, 77),
            run(&t3, 77),
            "leaf values leaked into the trace"
        );
    }
}
