package qbets

import "fmt"

// StoreCloner is implemented by OrderStats backends that can deep-copy
// themselves. Every backend in this package implements it; Predictor.Clone
// requires it of whatever store the predictor was configured with, because
// a clone rebuilt by re-insertion would not be guaranteed to reproduce the
// original's future behaviour (a randomized store's priority stream, for
// instance, advances per insertion).
type StoreCloner interface {
	// CloneOrderStats returns an independent deep copy of the store.
	CloneOrderStats() OrderStats
}

// Clone returns an independent deep copy of the store.
func (f *FenwickStore) Clone() *FenwickStore {
	cp := &FenwickStore{
		tick:   f.tick,
		tree:   append([]int(nil), f.tree...),
		counts: append([]int(nil), f.counts...),
		n:      f.n,
	}
	return cp
}

// CloneOrderStats implements StoreCloner.
func (f *FenwickStore) CloneOrderStats() OrderStats { return f.Clone() }

// Clone returns an independent deep copy of the predictor: identical
// retained history, change-point detector state, autocorrelation estimate,
// and order-statistic store. Feeding original and clone the same subsequent
// observations produces identical bounds — the property the service's
// incremental refresh relies on. It panics if the configured store does not
// implement StoreCloner (every package backend does).
func (p *Predictor) Clone() *Predictor {
	cl, ok := p.store.(StoreCloner)
	if !ok {
		panic(fmt.Sprintf("qbets: store %T does not implement StoreCloner", p.store))
	}
	q := *p
	q.store = cl.CloneOrderStats()
	q.grid, _ = q.store.(*LevelStore)
	// Copy only the live window; head restarts at zero. Eviction compaction
	// thresholds see a different layout but behaviour depends only on the
	// window contents, which are identical.
	q.chron = append([]float64(nil), p.chron[p.head:]...)
	q.head = 0
	q.violRing = append([]bool(nil), p.violRing...)
	return &q
}
