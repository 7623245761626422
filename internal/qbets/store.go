// Package qbets implements QBETS — Queue Bounds Estimation from Time
// Series (Nurmi, Brevik, Wolski) — the non-parametric forecaster at the
// heart of DrAFTS. Given a time series, a target quantile q and a
// confidence level c, QBETS maintains an order-statistic summary of the
// recent (stationary-looking) history and reports the sample rank whose
// value upper- or lower-bounds the q-th quantile of the next observation
// with confidence c, per the binomial argument of Equation 2 in the paper.
//
// The package has two order-statistic backends. A Predictor builds its own
// through Config.NewStore, which has no default:
//
//   - LevelStore holds only the grid levels present, each with its count.
//     Its memory follows the distinct values, so it suits ladder-like
//     tick data: every spot-price predictor uses it (core's price QBETS
//     for Online, Batch and snapshot restore, and baselines.AR1Bids).
//   - FenwickStore is a Fenwick (binary indexed) tree over a dense value
//     grid. The Empirical-CDF baseline uses it, over integer price
//     ticks. (core's duration trackers keep their own Fenwick tree of
//     run counts and lengths.)
//
// LevelStore and FenwickStore snap values to the grid the same way and
// return bit-identical selections. The tests check both against a treap
// over arbitrary float64 values.
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
