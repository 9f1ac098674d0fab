// Package analysis provides the paper's closed-form results so that every
// experiment can plot an analytic curve next to its Monte-Carlo measurement:
//
//   - the quorum overlap probability q(n, k) of Theorem 4,
//   - the write-survival decay bound of Theorem 1,
//   - the expected-rounds-per-pseudocycle bound of Corollary 7,
//   - the message-complexity formulas of Section 6.4 (Eqns 1–3),
//   - the Naor–Wool load lower bound max(1/k, k/n).
//
// Binomial coefficients are evaluated in log space (via math.Lgamma) so the
// formulas stay accurate for n in the hundreds without big integers.
package analysis

import (
	"math"
)

// LogBinomial returns ln C(n, k), or -Inf when the coefficient is zero
// (k < 0 or k > n).
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// Binomial returns C(n, k) as a float64.
func Binomial(n, k int) float64 {
	return math.Exp(LogBinomial(n, k))
}

// NonOverlapProb returns C(n−k, k) / C(n, k): the probability that a
// uniformly random k-subset misses a fixed k-subset of an n-universe. This
// is the failure probability in the proof of Theorem 4.
func NonOverlapProb(n, k int) float64 {
	if 2*k > n {
		return 0 // pigeonhole: every pair of k-subsets intersects
	}
	return math.Exp(LogBinomial(n-k, k) - LogBinomial(n, k))
}

// NonOverlapProbSuspects is NonOverlapProb for clients that pick around
// servers they suspect (the fault-aware fan-out): the probability that a read
// quorum misses a write quorum when the writer drew its k-subset uniformly
// from the n−sw servers it does not suspect and the reader draws its own from
// the n−sr it does not suspect, common of the suspects being shared. Of the
// writer's k members, i fall among the d = sr−common servers only the reader
// avoids — hypergeometrically, d specials in the writer's universe of n−sw —
// and are invisible to the reader, which must then miss the other k−i inside
// its own universe:
//
//	ε = Σ_i  C(d,i)·C(n−sw−d, k−i)/C(n−sw, k)  ·  C(n−sr−(k−i), k)/C(n−sr, k)
//
// Suspicions the two share only shrink the universe (ε = NonOverlapProb(n−s,
// k) < NonOverlapProb(n, k) when both suspect the same s). Suspects of one
// side alone change nothing: a quorum uniform over all n servers misses any
// fixed k-subset equally often, wherever that subset was drawn from. ε rises
// only when both sides avoid servers and disagree on which, and then slowly:
// for n = 34, k = 6 it is 0.2801 with no suspects and 0.2805, 0.2818, 0.2841
// with one, two, three suspects each, none shared. When a suspicion is right
// the avoided server is down and could not have answered anyway; the formula
// prices wrong ones. It is 0 whenever 2k > n, as for a majority.
func NonOverlapProbSuspects(n, k, sw, sr, common int) float64 {
	d := sr - common
	if d < 0 || common > sw || k > n-sw || k > n-sr {
		return math.NaN()
	}
	var eps float64
	for i := 0; i <= k && i <= d; i++ {
		if miss := n - sr - (k - i); miss >= k {
			eps += Hypergeometric(n-sw, d, k, i) *
				math.Exp(LogBinomial(miss, k)-LogBinomial(n-sr, k))
		}
	}
	return eps
}

// OverlapProb returns q = 1 − C(n−k, k)/C(n, k), the per-read "success"
// probability of condition [R5] for the monotone probabilistic quorum
// algorithm (Theorem 4).
func OverlapProb(n, k int) float64 {
	return 1 - NonOverlapProb(n, k)
}

// OverlapProbAsym generalizes Theorem 4's q to asymmetric quorum sizes: the
// probability that a random read quorum of size kr intersects a fixed write
// quorum of size kw, q = 1 − C(n−kw, kr)/C(n, kr). It is symmetric in
// (kw, kr); the message cost of Alg. 1, however, is not — reads outnumber
// writes m-to-owned — which is what the asymmetry ablation exploits.
func OverlapProbAsym(n, kw, kr int) float64 {
	if kw+kr > n {
		return 1 // pigeonhole
	}
	return 1 - math.Exp(LogBinomial(n-kw, kr)-LogBinomial(n, kr))
}

// Hypergeometric returns P(X = j) where X counts "special" elements in a
// uniformly random k-subset of an n-universe containing f specials:
// C(f, j)·C(n−f, k−j)/C(n, k).
func Hypergeometric(n, f, k, j int) float64 {
	if j < 0 || j > k || j > f || k-j > n-f {
		return 0
	}
	return math.Exp(LogBinomial(f, j) + LogBinomial(n-f, k-j) - LogBinomial(n, k))
}

// MaskingVulnerableProb returns the probability that a uniformly random
// read quorum of size k contains MORE than b of the f Byzantine servers —
// the configurations in which colluding fabricators could outvote the
// b-masking rule. Choosing b ≥ the expected Byzantine count plus a margin
// (or k ≥ 2b+1 with f ≤ b system-wide) drives this to zero.
func MaskingVulnerableProb(n, k, f, b int) float64 {
	var p float64
	for j := b + 1; j <= k && j <= f; j++ {
		p += Hypergeometric(n, f, k, j)
	}
	return math.Min(1, p)
}

// NonOverlapUpper returns ((n−k)/n)^k, the upper bound on NonOverlapProb
// from Proposition 3.2 of Malkhi–Reiter–Wright used by Corollary 7. Note
// ((n−k)/n)^k ≤ e^{−k²/n}, so k = Θ(√n) makes it a constant below 1.
func NonOverlapUpper(n, k int) float64 {
	return math.Pow(float64(n-k)/float64(n), float64(k))
}

// Theorem1Bound returns the Theorem 1 bound on the probability that at least
// one replica written by a write W survives l subsequent writes:
// min(1, k·((n−k)/n)^l). As l → ∞ the bound goes to 0, which is the content
// of condition [R3].
func Theorem1Bound(n, k, l int) float64 {
	b := float64(k) * math.Pow(float64(n-k)/float64(n), float64(l))
	return math.Min(1, b)
}

// Corollary7Rounds returns the Corollary 7 upper bound on the expected
// number of rounds per pseudocycle for the monotone probabilistic quorum
// algorithm: 1 / (1 − ((n−k)/n)^k). For k ≥ n/2 every pair of quorums
// intersects and one round per pseudocycle suffices, but the formula is
// still well defined and the experiments plot it across the full range.
func Corollary7Rounds(n, k int) float64 {
	denom := 1 - NonOverlapUpper(n, k)
	if denom <= 0 {
		return math.Inf(1)
	}
	return 1 / denom
}

// ExpectedRoundsExact returns the tighter per-pseudocycle bound 1/q with the
// exact overlap probability q(n, k) instead of Corollary 7's upper bound on
// 1−q. Theorem 5 is stated with this q.
func ExpectedRoundsExact(n, k int) float64 {
	q := OverlapProb(n, k)
	if q <= 0 {
		return math.Inf(1)
	}
	return 1 / q
}

// ConvergenceRoundsBound returns Corollary 6's bound on the expected total
// rounds for an ACO that converges in m pseudocycles: m/q.
func ConvergenceRoundsBound(m int, q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	return float64(m) / q
}

// MessagesPerRound returns the exact message count of one round of Alg. 1:
// each of p processes reads all m registers (2k messages per read) and the
// m registers are each written once per round (2k messages per write), for
// a total of 2pmk + 2mk = 2m(p+1)k (Section 6.4).
func MessagesPerRound(m, p, k int) int {
	return 2 * m * (p + 1) * k
}

// MProb evaluates Eqn 1: the expected number of messages per pseudocycle
// under the monotone probabilistic quorum implementation, 2·c·m·(p+1)·k,
// where c is the expected number of rounds per pseudocycle.
func MProb(m, p, k int, c float64) float64 {
	return c * float64(MessagesPerRound(m, p, k))
}

// MStrict evaluates Eqn 2: the message count per pseudocycle under a strict
// quorum implementation, which needs exactly one round per pseudocycle:
// 2·m·(p+1)·k.
func MStrict(m, p, k int) float64 {
	return float64(MessagesPerRound(m, p, k))
}

// NaorWoolLoadLowerBound returns max(1/k, k/n), the load lower bound for
// any strict quorum system whose smallest quorum has size k (Naor–Wool,
// FOCS 1994); Malkhi et al. showed it also holds asymptotically for
// probabilistic systems. It is minimized at k = √n with value 1/√n.
func NaorWoolLoadLowerBound(n, k int) float64 {
	return math.Max(1/float64(k), float64(k)/float64(n))
}

// GeometricTail returns P(Y > r) = (1−q)^r for a geometric variable with
// success probability q, used when comparing the empirical freshness
// distribution against [R5].
func GeometricTail(q float64, r int) float64 {
	return math.Pow(1-q, float64(r))
}

// APSPPseudocycles returns ⌈log2 d⌉, the worst-case number of pseudocycles
// for the all-pairs-shortest-path ACO on a graph of diameter d (Section 7).
// Diameter 1 needs one pseudocycle.
func APSPPseudocycles(d int) int {
	if d <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(d))))
}
