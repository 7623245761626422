// Package hashring is a minimal consistent-hash ring: it maps string keys
// onto a set of members (node addresses) such that membership changes move
// as few keys as possible. The read tier's router uses it to pick the
// node that owns a combo.
//
// The construction is the textbook one: each member is hashed onto the
// ring at virtualNodes points ("member#0", "member#1", ...), the points
// are sorted, and a key belongs to the first point clockwise from its own
// hash. Virtual nodes smooth the load split; removing a member reassigns
// only the keys that mapped to its points.
//
// A Ring is immutable once built. Membership changes are expressed by
// building a new ring from the new member list — consistent hashing
// guarantees the small movement, not any in-place bookkeeping.
package hashring

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is the per-member point count. 64 points keeps the max/mean
// load ratio within a few percent for small clusters while the ring stays
// tiny (a 3-node ring is 192 points).
const virtualNodes = 64

type point struct {
	hash   uint64
	member int // index into members
}

// Ring places keys on members by consistent hashing. The zero value is an
// empty ring; build one with New.
type Ring struct {
	members []string
	points  []point
}

// New builds a ring over members with virtualNodes points each. Duplicate
// and empty member strings are dropped; the member order does not affect
// placement (only the strings do).
func New(members ...string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*virtualNodes)}
	for i, m := range uniq {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, point{hash: hash(m + "#" + strconv.Itoa(v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break on member index so placement
		// stays deterministic across builds.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// hash is FNV-64a, the same cheap stable hash the blob store's ETags use.
func hash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Len returns the member count.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// Members returns the member list, sorted.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Candidates returns up to n distinct members in ownership order: the
// owner first, then the members whose points follow clockwise — the
// natural failover sequence, because those are exactly the members that
// would own the key if the ones before them left the ring.
func (r *Ring) Candidates(key string, n int) []string {
	if r.Len() == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	at := r.search(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(at+i)%len(r.points)]
		if taken[p.member] {
			continue
		}
		taken[p.member] = true
		out = append(out, r.members[p.member])
	}
	return out
}

// search finds the index of the first point clockwise from key's hash.
func (r *Ring) search(key string) int {
	h := hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap past the highest point back to the first
	}
	return i
}
