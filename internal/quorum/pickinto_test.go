package quorum

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

func pickIntoSystems(t *testing.T) []System {
	t.Helper()
	return []System{
		NewProbabilistic(25, 7),
		NewMajority(9),
		NewSingleton(5, 3),
		NewAll(6),
		NewGrid(4, 5),
		NewTree(15, 0.3),
		MustFPP(3),
	}
}

// TestPickIntoValid checks every implementation fills dst with a valid
// quorum (indices in range, no duplicates) and reuses the caller's storage.
func TestPickIntoValid(t *testing.T) {
	for _, sys := range pickIntoSystems(t) {
		r := rand.New(rand.NewPCG(1, 2))
		dst := make([]int, 0, sys.N())
		for i := 0; i < 200; i++ {
			q := PickInto(sys, dst, r)
			seen := make(map[int]bool, len(q))
			for _, s := range q {
				if s < 0 || s >= sys.N() {
					t.Fatalf("%s: server %d out of range", sys.Name(), s)
				}
				if seen[s] {
					t.Fatalf("%s: duplicate server %d in %v", sys.Name(), s, q)
				}
				seen[s] = true
			}
			if len(q) == 0 {
				t.Fatalf("%s: empty quorum", sys.Name())
			}
			if cap(dst) >= len(q) && &q[0] != &dst[:1][0] {
				t.Fatalf("%s: PickInto did not reuse dst", sys.Name())
			}
			dst = q
		}
	}
}

// TestPickIntoMatchesPick pins that Pick and PickInto consume the random
// stream identically — a seeded experiment replays the same quorum sequence
// through either entry point, so an engine's picks do not depend on whether
// it had a recycled session to pick into.
func TestPickIntoMatchesPick(t *testing.T) {
	for _, sys := range []System{
		NewProbabilistic(25, 7),
		NewMajority(9),
		NewSingleton(5, 3),
		NewAll(6),
		NewGrid(4, 5),
		NewTree(15, 0.3),
		MustFPP(3),
	} {
		r1 := rand.New(rand.NewPCG(7, 11))
		r2 := rand.New(rand.NewPCG(7, 11))
		var dst []int
		for i := 0; i < 100; i++ {
			a := sys.Pick(r1)
			dst = PickInto(sys, dst, r2)
			if !reflect.DeepEqual(a, dst) {
				t.Fatalf("%s: pick %d diverged: Pick=%v PickInto=%v", sys.Name(), i, a, dst)
			}
		}
	}
}

// TestRandomSubsetIntoUniformMembership mirrors the RandomSubset uniformity
// test for the in-place sampler: every element should appear with frequency
// k/n.
func TestRandomSubsetIntoUniformMembership(t *testing.T) {
	const (
		n, k   = 20, 6
		rounds = 20000
	)
	r := rand.New(rand.NewPCG(3, 9))
	counts := make([]int, n)
	var dst []int
	for i := 0; i < rounds; i++ {
		dst = RandomSubsetInto(dst, r, n, k)
		if len(dst) != k {
			t.Fatalf("size %d, want %d", len(dst), k)
		}
		sorted := append([]int(nil), dst...)
		sort.Ints(sorted)
		for j := 1; j < len(sorted); j++ {
			if sorted[j] == sorted[j-1] {
				t.Fatalf("duplicate %d in %v", sorted[j], dst)
			}
		}
		for _, v := range dst {
			counts[v]++
		}
	}
	want := float64(rounds) * float64(k) / float64(n)
	for v, c := range counts {
		if ratio := float64(c) / want; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("element %d appeared %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestRandomSubsetIntoFullSet(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	got := RandomSubsetInto(nil, r, 8, 8)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("full-set sample missing %d: %v", i, got)
		}
	}
}

// TestPickIntoAllocs is the allocation-regression gate scripts/check.sh
// runs: once dst has capacity, steady-state picking must not allocate.
func TestPickIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, sys := range pickIntoSystems(t) {
		r := rand.New(rand.NewPCG(1, 2))
		dst := make([]int, 0, sys.N())
		allocs := testing.AllocsPerRun(200, func() {
			dst = PickInto(sys, dst, r)
		})
		if allocs > 0 {
			t.Errorf("%s: PickInto allocates %v/op, want 0", sys.Name(), allocs)
		}
		avoid := maskOf(2)
		allocs = testing.AllocsPerRun(200, func() {
			dst = PickAvoiding(sys, dst, r, avoid)
		})
		if allocs > 0 {
			t.Errorf("%s: PickAvoiding allocates %v/op, want 0", sys.Name(), allocs)
		}
	}
}

func maskOf(servers ...int) Mask {
	var m Mask
	for _, s := range servers {
		m = m.With(s)
	}
	return m
}

// TestPickAvoidingUniform draws ≥ 50k quorums per row and checks, by
// chi-square, that membership is uniform over the servers the pick may use:
// the unmasked ones, or all of them once fewer than Size() remain unmasked.
func TestPickAvoidingUniform(t *testing.T) {
	const draws = 60000
	for _, tc := range []struct {
		name  string
		sys   System
		avoid Mask
	}{
		{"maj5/0", NewMajority(5), nil},
		{"maj5/1", NewMajority(5), maskOf(1)},
		{"maj5/3-ignored", NewMajority(5), maskOf(0, 2, 4)},
		{"k6n34/0", NewProbabilistic(34, 6), nil},
		{"k6n34/1", NewProbabilistic(34, 6), maskOf(33)},
		{"k6n34/3", NewProbabilistic(34, 6), maskOf(0, 17, 31)},
		{"k6n70/3", NewProbabilistic(70, 6), maskOf(5, 64, 69)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, k := tc.sys.N(), tc.sys.Size()
			allowed := make([]bool, n)
			m := 0
			for s := range allowed {
				if allowed[s] = !tc.avoid.Has(s); allowed[s] {
					m++
				}
			}
			if m < k {
				m = n
				for s := range allowed {
					allowed[s] = true
				}
			}
			r := rand.New(rand.NewPCG(5, 8))
			counts := make([]int, n)
			var dst []int
			for i := 0; i < draws; i++ {
				dst = PickAvoiding(tc.sys, dst, r, tc.avoid)
				if len(dst) != k {
					t.Fatalf("quorum %v has %d members, want %d", dst, len(dst), k)
				}
				seen := map[int]bool{}
				for _, s := range dst {
					if s < 0 || s >= n || !allowed[s] || seen[s] {
						t.Fatalf("quorum %v: server %d out of range, masked or repeated", dst, s)
					}
					seen[s] = true
					counts[s]++
				}
			}
			// Each allowed server is a member with probability k/m. The
			// statistic has m-1 degrees of freedom (scaled by 1-k/m for
			// sampling without replacement, which only tightens it);
			// mean + 5·sd of that chi-square is far beyond a fair sampler
			// and well below any biased one at this draw count.
			want := float64(draws) * float64(k) / float64(m)
			var chi2 float64
			for s, c := range counts {
				if allowed[s] {
					d := float64(c) - want
					chi2 += d * d / want
				}
			}
			df := float64(m - 1)
			if limit := df + 5*math.Sqrt(2*df); chi2 > limit {
				t.Fatalf("chi-square %.1f over %d servers exceeds %.1f: counts %v", chi2, m, limit, counts)
			}
		})
	}
}

// TestPickAvoidingEmptyMaskIsPickInto pins the healthy path: with nothing to
// avoid — and for systems that are not KSubsets, whatever the mask —
// PickAvoiding returns PickInto's quorums from PickInto's draws.
func TestPickAvoidingEmptyMaskIsPickInto(t *testing.T) {
	for _, sys := range pickIntoSystems(t) {
		for _, avoid := range []Mask{nil, {}, {0}, maskOf(1)} {
			if IsKSubsets(sys) && avoid.Has(1) {
				continue
			}
			r1 := rand.New(rand.NewPCG(7, 11))
			r2 := rand.New(rand.NewPCG(7, 11))
			var a, b []int
			for i := 0; i < 200; i++ {
				a = PickInto(sys, a, r1)
				b = PickAvoiding(sys, b, r2, avoid)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s mask %v pick %d: PickInto=%v PickAvoiding=%v", sys.Name(), avoid, i, a, b)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%s mask %v: the two picks consumed different amounts of the stream", sys.Name(), avoid)
			}
		}
	}
}

func TestIsKSubsets(t *testing.T) {
	for _, sys := range pickIntoSystems(t) {
		_, isProb := sys.(*Probabilistic)
		_, isMaj := sys.(*Majority)
		if got := IsKSubsets(sys); got != (isProb || isMaj) {
			t.Errorf("IsKSubsets(%s) = %v", sys.Name(), got)
		}
	}
	if v := (View{Epoch: 1, Members: []int32{0, 1, 2}}); !IsKSubsets(v.System()) {
		t.Error("a view's majority system is not KSubsets")
	}
	if v := (View{Epoch: 1, Members: []int32{0, 1, 2}, K: 2}); !IsKSubsets(v.System()) {
		t.Error("a view's probabilistic system is not KSubsets")
	}
}
