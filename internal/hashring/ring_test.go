package hashring

import (
	"fmt"
	"testing"
)

// owner returns the member that owns key, read straight off the ring's
// points; ok is false on an empty ring. Candidates must list it first.
func owner(r *Ring, key string) (string, bool) {
	if r.Len() == 0 {
		return "", false
	}
	return r.members[r.points[r.search(key)].member], true
}

func TestLookupDeterministic(t *testing.T) {
	a := New("n1", "n2", "n3")
	b := New("n3", "n1", "n2") // construction order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("zone-%d/type-%d", i%7, i)
		ma, ok := owner(a, key)
		if !ok {
			t.Fatalf("lookup %q failed", key)
		}
		mb, _ := owner(b, key)
		if ma != mb {
			t.Fatalf("key %q: %q vs %q across construction orders", key, ma, mb)
		}
	}
}

func TestLookupSpreads(t *testing.T) {
	r := New("n1", "n2", "n3")
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		m, _ := owner(r, fmt.Sprintf("key-%d", i))
		counts[m]++
	}
	for member, c := range counts {
		// Perfectly uniform would be n/3; vnode placement is hash-driven, so
		// just require every member to carry a meaningful share.
		if c < n/10 {
			t.Errorf("member %s owns only %d/%d keys", member, c, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d members received keys", len(counts))
	}
}

func TestMinimalMovement(t *testing.T) {
	before := New("n1", "n2", "n3")
	after := New("n1", "n2", "n3", "n4")
	const n = 2000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		mb, _ := owner(before, key)
		ma, _ := owner(after, key)
		if mb != ma {
			if ma != "n4" {
				t.Fatalf("key %q moved %s -> %s, not to the new member", key, mb, ma)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of keys to the new 4th member. Allow a
	// wide band; rehash-everything (~3/4 moved) must fail.
	if moved == 0 || moved > n/2 {
		t.Fatalf("%d/%d keys moved on member add", moved, n)
	}
}

func TestCandidatesDistinctAndOwnedFirst(t *testing.T) {
	r := New("n1", "n2", "n3")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		cands := r.Candidates(key, 3)
		if len(cands) != 3 {
			t.Fatalf("key %q: %d candidates", key, len(cands))
		}
		owner, _ := owner(r, key)
		if cands[0] != owner {
			t.Fatalf("key %q: first candidate %s is not owner %s", key, cands[0], owner)
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("key %q: duplicate candidate %s", key, c)
			}
			seen[c] = true
		}
	}
}

func TestEmptyAndNil(t *testing.T) {
	var nilRing *Ring
	if _, ok := owner(nilRing, "k"); ok {
		t.Error("nil ring returned a member")
	}
	if nilRing.Len() != 0 || len(nilRing.Candidates("k", 2)) != 0 {
		t.Error("nil ring not empty")
	}
	empty := New()
	if _, ok := owner(empty, "k"); ok {
		t.Error("empty ring returned a member")
	}
}

func TestDuplicateMembersDeduped(t *testing.T) {
	r := New("n1", "n1", "n2")
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Members(); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("Members = %v", got)
	}
}
