// Package qbets implements QBETS — Queue Bounds Estimation from Time
// Series (Nurmi, Brevik, Wolski) — the non-parametric forecaster at the
// heart of DrAFTS. Given a time series, a target quantile q and a
// confidence level c, QBETS maintains an order-statistic summary of the
// recent (stationary-looking) history and reports the sample rank whose
// value upper- or lower-bounds the q-th quantile of the next observation
// with confidence c, per the binomial argument of Equation 2 in the paper.
//
// The package provides three interchangeable order-statistic backends:
//
//   - LevelStore holds only the grid levels present, each with its count.
//     Its memory follows the distinct values, so it suits ladder-like
//     tick data: every spot-price predictor uses it (core's price QBETS
//     for Online, Batch and snapshot restore, and baselines.AR1Bids).
//   - FenwickStore is a Fenwick (binary indexed) tree over a dense value
//     grid. The Empirical-CDF baseline uses it, over integer price
//     ticks. (core's duration trackers keep their own Fenwick tree of
//     run counts and lengths.)
//   - Treap is a randomized treap for arbitrary float64 data. It is the
//     Config default and the tests' reference for the grid stores.
//
// LevelStore and FenwickStore snap values to the grid the same way and
// return bit-identical selections.
package qbets

// OrderStats maintains a multiset of float64 values under insertion,
// removal, and selection by rank. Implementations need not be safe for
// concurrent use; each Predictor owns its store.
type OrderStats interface {
	// Insert adds one occurrence of v.
	Insert(v float64)
	// Remove deletes one occurrence of v, reporting whether it was present.
	Remove(v float64) bool
	// Select returns the k-th smallest value, 1-based. It panics if k is
	// out of [1, Len()]; rank arithmetic is the caller's contract.
	Select(k int) float64
	// Len returns the number of stored values (counting multiplicity).
	Len() int
}

// treapNode is a node of a randomized balanced BST keyed by value, with
// duplicate counting and subtree-size augmentation for O(log n) selection.
type treapNode struct {
	val         float64
	prio        uint64
	count       int // multiplicity of val
	size        int // total values in subtree (with multiplicity)
	left, right *treapNode
}

func (n *treapNode) sz() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *treapNode) update() {
	n.size = n.count + n.left.sz() + n.right.sz()
}

// Treap is an OrderStats backed by a randomized treap. The zero value is
// not usable; construct with NewTreap.
type Treap struct {
	root  *treapNode
	state uint64 // xorshift state for priorities; deterministic per treap
}

// NewTreap returns an empty treap whose rebalancing priorities are drawn
// from a deterministic stream derived from seed, keeping every simulation
// in this repository reproducible.
func NewTreap(seed uint64) *Treap {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Treap{state: seed}
}

func (t *Treap) nextPrio() uint64 {
	// xorshift64*
	x := t.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.state = x
	return x * 0x2545F4914F6CDD1D
}

// Len returns the number of stored values.
func (t *Treap) Len() int { return t.root.sz() }

// Insert adds one occurrence of v.
func (t *Treap) Insert(v float64) {
	t.root = t.insert(t.root, v)
}

func (t *Treap) insert(n *treapNode, v float64) *treapNode {
	if n == nil {
		return &treapNode{val: v, prio: t.nextPrio(), count: 1, size: 1}
	}
	switch {
	//draftsvet:ignore floatcmp order-statistic buckets hold verbatim inserted values
	case v == n.val:
		n.count++
	case v < n.val:
		n.left = t.insert(n.left, v)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	default:
		n.right = t.insert(n.right, v)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	n.update()
	return n
}

// Remove deletes one occurrence of v.
func (t *Treap) Remove(v float64) bool {
	var removed bool
	t.root, removed = t.remove(t.root, v)
	return removed
}

func (t *Treap) remove(n *treapNode, v float64) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case v < n.val:
		n.left, removed = t.remove(n.left, v)
	case v > n.val:
		n.right, removed = t.remove(n.right, v)
	default:
		removed = true
		if n.count > 1 {
			n.count--
		} else {
			n = deleteNode(n)
			if n == nil {
				return nil, true
			}
		}
	}
	n.update()
	return n, removed
}

// deleteNode removes a single-count node by rotating it to a leaf.
func deleteNode(n *treapNode) *treapNode {
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	if n.left.prio > n.right.prio {
		n = rotateRight(n)
		n.right = deleteNode(n.right)
	} else {
		n = rotateLeft(n)
		n.left = deleteNode(n.left)
	}
	n.update()
	return n
}

// Select returns the k-th smallest value (1-based).
func (t *Treap) Select(k int) float64 {
	if k < 1 || k > t.Len() {
		panic("qbets: Treap.Select rank out of range")
	}
	n := t.root
	for {
		ls := n.left.sz()
		switch {
		case k <= ls:
			n = n.left
		case k <= ls+n.count:
			return n.val
		default:
			k -= ls + n.count
			n = n.right
		}
	}
}

func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}
