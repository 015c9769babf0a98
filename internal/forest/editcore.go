package forest

import (
	"errors"
	"fmt"
	"math"
)

var errNilRoot = errors.New("forest: nil term root")

func balanceError(h, w, budget int) error {
	return fmt.Errorf("forest: height invariant violated: height %d > budget %d at weight %d", h, budget, w)
}

// editCore is the splice/rebalance core SHARED by Forest (trees) and
// Word (words): the dirty protocol (created / retired / prev / moved
// lists behind DrainDelta), the path-copying spliceUp publication, and
// the scapegoat height rule. The two owners differ only in how a fresh
// inner node is allocated (Forest registers plug operations, Word is
// ⊕HH-only) and how a scapegoat subterm is rebuilt (Forest rebuilds from
// the underlying tree cluster, Word re-splits its letter leaves) — those
// two hooks are the termOwner interface; everything else is one code
// path, which is what lets the structural edits (subtree splice, rope
// split/join, bulk load) behave identically for both document kinds.
type editCore struct {
	Root *Node

	// created lists term nodes needing circuit-box (re)construction, in
	// an order where children precede parents.
	created []*Node
	// retired lists term nodes dropped from the term by path copying
	// since the last DrainDelta: the engine uses it to release the
	// attachments (boxes, indexes) of superseded trunk nodes eagerly.
	retired []*Node
	// prev maps a fresh node to the pre-batch node it path-copied (the
	// same term position, one edit earlier), resolved through intra-batch
	// chains; TrunkDelta.Prev hands it to consumers so signature-pruned
	// repair can compare a rebuilt trunk box against its predecessor.
	prev map[*Node]*Node
	// moved lists the roots of maximal subterms a structural edit
	// RELOCATED without rebuilding (a moved subtree's shared chunks, a
	// rope split's re-parented runs): every node under them keeps its
	// identity, so consumers keep their frozen attachments and only
	// account for the reuse (TrunkDelta.Moved).
	moved []*Node

	// Height budget: rebuild a subterm when its height exceeds
	// HeightFactor·log₂(weight+1) + HeightBase (scapegoat rule).
	HeightFactor float64
	HeightBase   int

	// Rebuilds counts subterm rebuilds triggered by the height rule
	// (exposed for the amortization experiments).
	Rebuilds int
	// RebuiltWeight accumulates the total weight of rebuilt subterms.
	RebuiltWeight int

	owner termOwner
}

// termOwner is what the core needs back from its embedding struct: fresh
// inner-node allocation (with owner-specific map registration) and the
// owner-specific scapegoat rebuild.
type termOwner interface {
	joinInner(op Op, l, r *Node) *Node
	rebuildSubterm(t *Node)
}

// record registers a node as created/modified for the dirty protocol.
func (c *editCore) record(n *Node) { c.created = append(c.created, n) }

// recordPrev notes that fresh supersedes old at the same term position.
// Chains within one batch are resolved at record time (entries always
// point at nodes that predate the batch, the ones consumers may hold
// attachments for), so a lookup is O(1) and a batch of k edits over one
// trunk maps its final copies to the pre-batch originals.
func (c *editCore) recordPrev(fresh, old *Node) {
	if c.prev == nil {
		c.prev = map[*Node]*Node{}
	}
	if orig, ok := c.prev[old]; ok {
		old = orig
	}
	c.prev[fresh] = old
}

// retire registers a node as dropped from the term. Shared subtrees are
// never retired — only the nodes a path copy or rebuild actually
// replaced. Nodes created and superseded within the same batch may be
// retired too; consumers treat unknown nodes as a no-op.
func (c *editCore) retire(n *Node) { c.retired = append(c.retired, n) }

// retireSubterm retires a whole subterm (used when a scapegoat rebuild
// or a subtree deletion replaces it with nothing it shares).
func (c *editCore) retireSubterm(n *Node) {
	if n == nil {
		return
	}
	c.retireSubterm(n.Left)
	c.retireSubterm(n.Right)
	c.retired = append(c.retired, n)
}

// recordMoved registers the root of a relocated-but-unchanged subterm
// for TrunkDelta.Moved. Roots detached by a later edit in the same batch
// are filtered at drain time.
func (c *editCore) recordMoved(n *Node) { c.moved = append(c.moved, n) }

// attached reports whether the node is still part of the current term
// (edits may create nodes that a subsequent rebuild in the same batch
// discards).
func (c *editCore) attached(n *Node) bool {
	for x := n; ; x = x.Parent {
		if x.Parent == nil {
			return x == c.Root
		}
		if x.Parent.Left != x && x.Parent.Right != x {
			return false
		}
	}
}

// drainFresh returns the nodes whose circuit boxes must be rebuilt,
// children before parents and deduplicated, and resets the dirty list.
// Deduplication keeps the LAST occurrence: a scapegoat rebuild re-dirties
// ancestors after their first recording, and only the final position
// respects the children-first order. (The former consume-once public
// Drain/DrainRetired protocol is folded into DrainDelta; this is its
// internal half.)
func (c *editCore) drainFresh() []*Node {
	last := map[*Node]int{}
	for i, n := range c.created {
		last[n] = i
	}
	var out []*Node
	for i, n := range c.created {
		if last[n] == i && c.attached(n) {
			out = append(out, n)
		}
	}
	// Clear before truncating: stale pointers left in the backing array
	// (every node of the bulk build included) would keep retired trunks
	// alive, and retired nodes' Parent pointers reach into later versions.
	clear(c.created)
	c.created = c.created[:0]
	return out
}

// drainMoved filters the moved-root list down to roots still attached to
// the current term (a later edit in the batch may have retired or
// re-split them), deduplicated, and resets the list.
func (c *editCore) drainMoved() []*Node {
	if len(c.moved) == 0 {
		return nil
	}
	seen := map[*Node]bool{}
	var out []*Node
	for _, n := range c.moved {
		if !seen[n] && c.attached(n) {
			seen[n] = true
			out = append(out, n)
		}
	}
	c.moved = nil
	return out
}

// DrainDelta drains the dirty protocol ONCE into an immutable TrunkDelta
// (fresh trunk, prev hints, retired nodes, moved subterm roots, current
// root) and resets all lists. This is the only drain entry point: any
// number of consumers may replay the returned value concurrently or
// after the fact.
func (c *editCore) DrainDelta() TrunkDelta {
	fresh := c.drainFresh()
	d := TrunkDelta{
		Fresh:   fresh,
		Prev:    prevSlice(fresh, c.prev),
		Retired: c.retired,
		Moved:   c.drainMoved(),
		Root:    c.Root,
	}
	c.retired = nil
	return d
}

// heightBudget is the scapegoat threshold for a subterm of the given
// weight.
func (c *editCore) heightBudget(weight int) int {
	return int(c.HeightFactor*math.Log2(float64(weight+1))) + c.HeightBase
}

// spliceUp publishes repl in place of the child slot (p, wasLeft): it
// builds fresh copies of every node from p up to the root, sharing the
// off-trunk siblings, and then applies the scapegoat rule to the fresh
// path (repl itself included). p and wasLeft must be captured BEFORE
// repl's construction re-targets any parent pointers; p == nil makes
// repl the new root.
func (c *editCore) spliceUp(p *Node, wasLeft bool, repl *Node) {
	var scapegoat *Node
	if repl.Height > c.heightBudget(repl.Weight) {
		scapegoat = repl
	}
	for p != nil {
		// Capture the next slot before joinInner redirects any pointers.
		np, nwasLeft := p.Parent, p.Parent != nil && p.Parent.Left == p
		var nn *Node
		if wasLeft {
			nn = c.owner.joinInner(p.Op, repl, p.Right)
		} else {
			nn = c.owner.joinInner(p.Op, p.Left, repl)
		}
		if nn.Height > c.heightBudget(nn.Weight) {
			scapegoat = nn
		}
		c.recordPrev(nn, p)
		c.retire(p)
		repl, p, wasLeft = nn, np, nwasLeft
	}
	c.Root = repl
	repl.Parent = nil
	if scapegoat != nil {
		c.owner.rebuildSubterm(scapegoat)
	}
}

// structuralFixup restores the height invariant after a structural edit
// whose fresh nodes were created outside spliceUp's per-path check
// (subterm extraction spines, rope joins): candidates are checked in
// reverse creation order (ancestors roughly first), each still-attached
// violator is rebuilt, and finally the root itself is brought within its
// budget. Rebuild cost is amortized against the weight imbalance the
// structural edits accumulated (DESIGN.md §10).
func (c *editCore) structuralFixup(candidates []*Node) {
	for i := len(candidates) - 1; i >= 0; i-- {
		n := candidates[i]
		if n.Height > c.heightBudget(n.Weight) && c.attached(n) {
			c.owner.rebuildSubterm(n)
		}
	}
	for c.Root.Height > c.heightBudget(c.Root.Weight) {
		c.owner.rebuildSubterm(c.Root)
	}
}

// TermRoot returns the root of the current term (dynamic-engine
// interface, shared by Forest and Word).
func (c *editCore) TermRoot() *Node { return c.Root }

// Rebalances returns the number of scapegoat rebuilds performed so far
// (dynamic-engine interface, shared by Forest and Word).
func (c *editCore) Rebalances() int { return c.Rebuilds }

// CheckBalanceDeep verifies the height invariant for EVERY subterm, not
// just the root: each node is within budget at creation or becomes a
// scapegoat (rebuilt, or retired under a rebuilt ancestor), and
// height/weight are immutable afterwards, so the per-node invariant must
// hold on the whole published term. O(n); for tests only.
func (c *editCore) CheckBalanceDeep() error {
	if c.Root == nil {
		return errNilRoot
	}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n == nil {
			return nil
		}
		if n.Height > c.heightBudget(n.Weight) {
			return balanceError(n.Height, n.Weight, c.heightBudget(n.Weight))
		}
		if err := rec(n.Left); err != nil {
			return err
		}
		return rec(n.Right)
	}
	return rec(c.Root)
}
