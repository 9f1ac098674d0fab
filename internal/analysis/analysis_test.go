package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{34, 6, 1344904}, {20, 10, 184756},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want)/c.want > 1e-10 {
			t.Fatalf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialOutOfRange(t *testing.T) {
	if Binomial(5, 6) != 0 || Binomial(5, -1) != 0 {
		t.Fatal("out-of-range binomial must be 0")
	}
	if !math.IsInf(LogBinomial(5, 6), -1) {
		t.Fatal("log binomial out of range must be -Inf")
	}
}

func TestBinomialPascalProperty(t *testing.T) {
	// Property: C(n,k) = C(n-1,k-1) + C(n-1,k) for modest n.
	f := func(rawN, rawK uint8) bool {
		n := 2 + int(rawN%60)
		k := 1 + int(rawK)%(n-1)
		lhs := Binomial(n, k)
		rhs := Binomial(n-1, k-1) + Binomial(n-1, k)
		return math.Abs(lhs-rhs)/rhs < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonOverlapProbBruteForce(t *testing.T) {
	// For small n, enumerate all k-subsets and count those missing {0..k-1}.
	for _, c := range []struct{ n, k int }{{6, 2}, {8, 3}, {10, 4}} {
		var total, miss int
		var rec func(start, left int, hits bool)
		rec = func(start, left int, hits bool) {
			if left == 0 {
				total++
				if !hits {
					miss++
				}
				return
			}
			for s := start; s <= c.n-left; s++ {
				rec(s+1, left-1, hits || s < c.k)
			}
		}
		rec(0, c.k, false)
		want := float64(miss) / float64(total)
		if got := NonOverlapProb(c.n, c.k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("NonOverlapProb(%d,%d) = %v, want %v", c.n, c.k, got, want)
		}
	}
}

func TestNonOverlapProbPigeonhole(t *testing.T) {
	if NonOverlapProb(10, 6) != 0 {
		t.Fatal("2k>n must force overlap")
	}
	if OverlapProb(10, 6) != 1 {
		t.Fatal("2k>n must give q=1")
	}
}

func TestOverlapProbKnownValues(t *testing.T) {
	// n=34, k=1: q = 1 - 33/34 = 1/34 — the value behind the paper's
	// "204 = 6/q" bound at quorum size 1.
	if got, want := OverlapProb(34, 1), 1.0/34; math.Abs(got-want) > 1e-12 {
		t.Fatalf("q(34,1) = %v, want %v", got, want)
	}
}

func TestNonOverlapUpperDominates(t *testing.T) {
	// Proposition 3.2: C(n-k,k)/C(n,k) <= ((n-k)/n)^k.
	f := func(rawN, rawK uint8) bool {
		n := 2 + int(rawN%100)
		k := 1 + int(rawK)%n
		return NonOverlapProb(n, k) <= NonOverlapUpper(n, k)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1BoundDecays(t *testing.T) {
	n, k := 34, 6
	prev := Theorem1Bound(n, k, 0)
	if prev != 1 {
		t.Fatalf("l=0 bound = %v, want clamped to 1", prev)
	}
	for l := 1; l <= 60; l++ {
		b := Theorem1Bound(n, k, l)
		if b > prev+1e-15 {
			t.Fatalf("bound increased at l=%d: %v -> %v", l, prev, b)
		}
		prev = b
	}
	if prev > 1e-3 {
		t.Fatalf("bound at l=60 still %v; must decay toward 0", prev)
	}
}

func TestCorollary7KnownValue(t *testing.T) {
	// Paper: with n=34, k=1 the computed upper bound on total rounds is
	// 204 = 6 pseudocycles x 34 rounds/pseudocycle, and Corollary 7 gives
	// 1/(1-(33/34)^1) = 34 rounds per pseudocycle.
	if got := Corollary7Rounds(34, 1); math.Abs(got-34) > 1e-9 {
		t.Fatalf("Corollary7Rounds(34,1) = %v, want 34", got)
	}
	if got := ConvergenceRoundsBound(6, OverlapProb(34, 1)); math.Abs(got-204) > 1e-9 {
		t.Fatalf("6-pseudocycle bound = %v, want 204", got)
	}
}

func TestCorollary7SqrtNRegime(t *testing.T) {
	// Section 6.4 uses 1 < c_n < 2 when k = sqrt(n). Verify across a wide
	// range of square n.
	for _, n := range []int{16, 25, 36, 64, 100, 400, 2500, 10000} {
		k := int(math.Sqrt(float64(n)))
		c := Corollary7Rounds(n, k)
		if c <= 1 || c >= 2 {
			t.Fatalf("n=%d k=%d: c_n = %v, want in (1,2)", n, k, c)
		}
	}
}

func TestCorollary7Monotone(t *testing.T) {
	// Larger quorums can only speed up convergence.
	n := 34
	prev := math.Inf(1)
	for k := 1; k <= n; k++ {
		c := Corollary7Rounds(n, k)
		if c > prev+1e-12 {
			t.Fatalf("bound increased at k=%d", k)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-12 {
		t.Fatalf("k=n must give exactly 1 round/pseudocycle, got %v", prev)
	}
}

func TestExpectedRoundsExactTighter(t *testing.T) {
	// 1/q with exact q is never worse than Corollary 7's bound.
	for k := 1; k <= 17; k++ {
		exact := ExpectedRoundsExact(34, k)
		loose := Corollary7Rounds(34, k)
		if exact > loose+1e-9 {
			t.Fatalf("k=%d: exact %v exceeds loose bound %v", k, exact, loose)
		}
	}
}

func TestMessagesPerRound(t *testing.T) {
	// Paper: 2pmk + 2mk messages per round.
	m, p, k := 34, 34, 6
	want := 2*p*m*k + 2*m*k
	if got := MessagesPerRound(m, p, k); got != want {
		t.Fatalf("messages/round = %d, want %d", got, want)
	}
}

func TestEqn3Regimes(t *testing.T) {
	// High-availability regime: majority strict (k = n/2+1) must cost
	// asymptotically more than probabilistic with k = sqrt(n).
	for _, n := range []int{64, 256, 1024} {
		m, p := n, n
		kProb := int(math.Sqrt(float64(n)))
		c := Corollary7Rounds(n, kProb)
		prob := MProb(m, p, kProb, c)
		strictMajority := MStrict(m, p, n/2+1)
		if prob >= strictMajority {
			t.Fatalf("n=%d: M_prob=%v not below majority M_str=%v", n, prob, strictMajority)
		}
		// Optimal-load regime: strict grid with k ~ 2sqrt(n) is the same
		// order; within a small constant factor.
		strictGrid := MStrict(m, p, 2*kProb-1)
		if prob > 2*strictGrid {
			t.Fatalf("n=%d: M_prob=%v more than 2x grid M_str=%v", n, prob, strictGrid)
		}
	}
}

func TestNaorWoolLoadLowerBound(t *testing.T) {
	if got := NaorWoolLoadLowerBound(100, 10); got != 0.1 {
		t.Fatalf("load bound at k=sqrt(n) = %v, want 0.1", got)
	}
	if got := NaorWoolLoadLowerBound(100, 2); got != 0.5 {
		t.Fatalf("load bound k=2 = %v, want 1/k = 0.5", got)
	}
	if got := NaorWoolLoadLowerBound(100, 80); got != 0.8 {
		t.Fatalf("load bound k=80 = %v, want k/n = 0.8", got)
	}
}

func TestGeometricTail(t *testing.T) {
	if got := GeometricTail(0.5, 3); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("tail = %v", got)
	}
	if GeometricTail(1, 1) != 0 {
		t.Fatal("q=1 tail must be 0")
	}
}

func TestAPSPPseudocycles(t *testing.T) {
	cases := []struct{ d, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {33, 6}, {64, 6}, {65, 7},
	}
	for _, c := range cases {
		if got := APSPPseudocycles(c.d); got != c.want {
			t.Fatalf("pseudocycles(d=%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHypergeometricSumsToOne(t *testing.T) {
	const n, f, k = 20, 6, 5
	var sum float64
	for j := 0; j <= k; j++ {
		sum += Hypergeometric(n, f, k, j)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v", sum)
	}
}

func TestHypergeometricBruteForce(t *testing.T) {
	// Enumerate all 5-subsets of 10 elements with 3 specials.
	const n, f, k = 10, 3, 5
	counts := make([]int, k+1)
	total := 0
	var rec func(start, left, specials int)
	rec = func(start, left, specials int) {
		if left == 0 {
			counts[specials]++
			total++
			return
		}
		for s := start; s <= n-left; s++ {
			sp := specials
			if s < f {
				sp++
			}
			rec(s+1, left-1, sp)
		}
	}
	rec(0, k, 0)
	for j := 0; j <= k; j++ {
		want := float64(counts[j]) / float64(total)
		if got := Hypergeometric(n, f, k, j); math.Abs(got-want) > 1e-12 {
			t.Fatalf("P(X=%d) = %v, want %v", j, got, want)
		}
	}
}

func TestMaskingVulnerableProb(t *testing.T) {
	// With b >= f the quorum can never contain more than b Byzantine
	// servers... only when f <= b; check boundary behaviour.
	if got := MaskingVulnerableProb(20, 5, 2, 2); got != 0 {
		t.Fatalf("f=b=2: vulnerable prob = %v, want 0", got)
	}
	// All-Byzantine universe with b=0: any quorum is vulnerable.
	if got := MaskingVulnerableProb(10, 3, 10, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("all-byzantine prob = %v, want 1", got)
	}
	// Monotone in f.
	prev := 0.0
	for f := 0; f <= 12; f++ {
		cur := MaskingVulnerableProb(24, 6, f, 1)
		if cur+1e-12 < prev {
			t.Fatalf("vulnerability decreased with more Byzantine servers at f=%d", f)
		}
		prev = cur
	}
}

// TestNonOverlapProbSuspectsBruteForce enumerates, for small systems, every
// write quorum in the writer's universe against every read quorum in the
// reader's and compares the share of disjoint pairs with the closed form.
// The writer suspects servers [0, sw); the reader suspects common of those
// plus the sr−common servers just above them.
func TestNonOverlapProbSuspectsBruteForce(t *testing.T) {
	for _, c := range []struct{ n, k, sw, sr, common int }{
		{8, 2, 0, 0, 0},
		{8, 2, 2, 2, 2}, // agreed suspects
		{8, 2, 3, 0, 0}, // the writer's alone
		{8, 2, 0, 3, 0}, // the reader's alone
		{9, 3, 2, 3, 1},
		{10, 3, 1, 4, 0},
		{7, 4, 1, 2, 0}, // a majority: always 0
	} {
		var wu, ru uint // universes as bitmasks
		for s := 0; s < c.n; s++ {
			if s >= c.sw {
				wu |= 1 << s
			}
			if !(s < c.common || (s >= c.sw && s < c.sw+c.sr-c.common)) {
				ru |= 1 << s
			}
		}
		var pairs, miss int
		for w := uint(0); w < 1<<c.n; w++ {
			if w&^wu != 0 || bitCount(w) != c.k {
				continue
			}
			for r := uint(0); r < 1<<c.n; r++ {
				if r&^ru != 0 || bitCount(r) != c.k {
					continue
				}
				pairs++
				if w&r == 0 {
					miss++
				}
			}
		}
		want := float64(miss) / float64(pairs)
		if got := NonOverlapProbSuspects(c.n, c.k, c.sw, c.sr, c.common); math.Abs(got-want) > 1e-12 {
			t.Errorf("NonOverlapProbSuspects%v = %v, want %v", c, got, want)
		}
	}
	if got, want := NonOverlapProbSuspects(34, 6, 0, 0, 0), NonOverlapProb(34, 6); math.Abs(got-want) > 1e-12 {
		t.Errorf("with no suspects %v, want NonOverlapProb = %v", got, want)
	}
	if got, want := NonOverlapProbSuspects(34, 6, 3, 3, 3), NonOverlapProb(31, 6); math.Abs(got-want) > 1e-12 {
		t.Errorf("with three agreed suspects %v, want NonOverlapProb(31, 6) = %v", got, want)
	}
	if !math.IsNaN(NonOverlapProbSuspects(8, 3, 6, 0, 0)) {
		t.Error("fewer than k unsuspected servers accepted")
	}
}

func bitCount(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
