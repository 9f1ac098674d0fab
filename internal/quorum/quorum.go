// Package quorum implements the quorum systems the paper builds on and
// compares against.
//
// A quorum system over n replica servers is a collection of subsets
// ("quorums") of the servers together with a strategy for picking the quorum
// an operation accesses. Strict systems (majority, grid, finite projective
// plane) guarantee that every pair of quorums intersects; the probabilistic
// system of Malkhi, Reiter and Wright relaxes this to intersection with high
// probability, which breaks the Naor–Wool load/availability trade-off
// (paper, Section 4).
//
// Every system here exposes the randomized access strategy the analyses
// assume: probabilistic systems pick a uniformly random k-subset; strict
// systems pick uniformly among their predefined quorums.
package quorum

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// System is a quorum system together with its access strategy.
//
// Pick must return a quorum as a slice of server indices in [0, N()). The
// returned slice is owned by the caller. Implementations must be
// deterministic given the stream r.
type System interface {
	// N returns the number of replica servers.
	N() int
	// Size returns the size of the quorums the strategy picks. All systems
	// in this package use uniform quorum sizes.
	Size() int
	// Pick selects the quorum for one operation using r.
	Pick(r *rand.Rand) []int
	// Strict reports whether every pair of quorums is guaranteed to
	// intersect.
	Strict() bool
	// Name identifies the system in experiment output.
	Name() string
}

// IntoPicker is implemented by systems that can fill a caller-owned slice
// instead of allocating a fresh quorum per pick. PickInto truncates dst and
// appends the picked quorum, returning the result (which aliases dst when
// capacity suffices); like Pick it must be deterministic given r. Every
// system in this package implements it — the steady-state operation path
// uses it to stop allocating a slice per attempt.
type IntoPicker interface {
	PickInto(dst []int, r *rand.Rand) []int
}

// PickInto picks a quorum from s into dst, falling back to a copy of
// s.Pick for systems outside this package that predate IntoPicker.
func PickInto(s System, dst []int, r *rand.Rand) []int {
	if ip, ok := s.(IntoPicker); ok {
		return ip.PickInto(dst, r)
	}
	return append(dst[:0], s.Pick(r)...)
}

// KSubsets is implemented by the systems whose quorums are exactly the
// Size()-subsets of their servers, so that any Size() distinct servers form a
// quorum — Probabilistic and Majority here (and whatever View.System
// returns). Two things are sound only for them: replacing one member of an
// in-flight quorum by any server outside it (the result is a quorum of the
// same system, drawn no less uniformly), and drawing the quorum from the
// servers a client believes live (PickAvoiding). Grid, tree, projective-plane
// and fixed-quorum systems have structure a substituted member would break.
type KSubsets interface {
	KSubsets()
}

// IsKSubsets reports whether any Size() distinct servers of s form a quorum.
func IsKSubsets(s System) bool {
	_, ok := s.(KSubsets)
	return ok
}

// Mask is a set of server indices — bit i%64 of word i/64 — for picks to
// avoid. The nil Mask is empty; indices beyond the last word are not members.
type Mask []uint64

// Has reports whether server i is in the set.
func (m Mask) Has(i int) bool {
	w := i >> 6
	return w < len(m) && m[w]&(1<<uint(i&63)) != 0
}

// With returns the set with server i added, growing it as needed.
func (m Mask) With(i int) Mask {
	for i>>6 >= len(m) {
		m = append(m, 0)
	}
	m[i>>6] |= 1 << uint(i&63)
	return m
}

// free returns word w of the complement of m within [0, n): the servers of
// that word a pick may still use.
func (m Mask) free(w, n int) uint64 {
	f := ^uint64(0)
	if w < len(m) {
		f = ^m[w]
	}
	if rem := n - w<<6; rem < 64 {
		f &= 1<<uint(rem) - 1
	}
	return f
}

// PickAvoiding picks a quorum of s into dst like PickInto, but for a
// KSubsets system draws it uniformly from the servers outside avoid. With an
// empty mask it is PickInto — same result, same draws from r — and so it is
// when fewer than Size() servers remain outside the mask (a client that
// suspects too many servers is no worse off than one that suspects none) or
// when s is not a KSubsets system. It allocates nothing when cap(dst) >=
// Size().
func PickAvoiding(s System, dst []int, r *rand.Rand, avoid Mask) []int {
	n, k := s.N(), s.Size()
	words := (n + 63) >> 6
	m := 0
	for w := 0; w < words; w++ {
		m += bits.OnesCount64(avoid.free(w, n))
	}
	if m == n || m < k || !IsKSubsets(s) {
		return PickInto(s, dst, r)
	}
	// A uniform k-subset of the ranks [0, m), each rank then mapped to the
	// server holding it among those outside the mask.
	dst = RandomSubsetInto(dst, r, m, k)
	for i, rank := range dst {
		for w := 0; ; w++ {
			f := avoid.free(w, n)
			if c := bits.OnesCount64(f); rank >= c {
				rank -= c
				continue
			}
			for ; rank > 0; rank-- {
				f &= f - 1
			}
			dst[i] = w<<6 + bits.TrailingZeros64(f)
			break
		}
	}
	return dst
}

// Probabilistic is the probabilistic quorum system: the quorums are all
// k-subsets of the n servers and the strategy picks one uniformly at random.
// Pairs of quorums intersect only with high probability (when k = Ω(√n)).
type Probabilistic struct {
	n, k int
}

var _ System = (*Probabilistic)(nil)

// NewProbabilistic returns the probabilistic quorum system with n servers
// and quorum size k. It panics if the parameters are out of range; the
// constructor arguments come from experiment configuration, not runtime
// input, so a panic surfaces a programming error immediately.
func NewProbabilistic(n, k int) *Probabilistic {
	if n <= 0 || k <= 0 || k > n {
		panic(fmt.Sprintf("quorum: invalid probabilistic system n=%d k=%d", n, k))
	}
	return &Probabilistic{n: n, k: k}
}

// N implements System.
func (p *Probabilistic) N() int { return p.n }

// Size implements System.
func (p *Probabilistic) Size() int { return p.k }

// Strict reports whether the system happens to be strict, which holds only
// when k > n/2 (every pair of k-subsets then intersects by pigeonhole).
func (p *Probabilistic) Strict() bool { return 2*p.k > p.n }

// Name implements System.
func (p *Probabilistic) Name() string { return fmt.Sprintf("probabilistic(n=%d,k=%d)", p.n, p.k) }

// Pick returns a uniformly random k-subset of the servers.
func (p *Probabilistic) Pick(r *rand.Rand) []int {
	return RandomSubset(r, p.n, p.k)
}

// PickInto implements IntoPicker. It samples with Floyd's algorithm, which
// consumes a different part of the stream than Pick's Fisher–Yates — both
// are uniform over k-subsets, but seeded replays must not mix the two.
func (p *Probabilistic) PickInto(dst []int, r *rand.Rand) []int {
	return RandomSubsetInto(dst, r, p.n, p.k)
}

// KSubsets implements KSubsets: every k-subset is a quorum.
func (p *Probabilistic) KSubsets() {}

// Majority is the majority quorum system: the quorums are all subsets of
// size floor(n/2)+1, picked uniformly. It is the strict system with maximal
// availability (ceil(n/2) crash failures are needed to disable it) but load
// about 1/2.
type Majority struct {
	n int
}

var _ System = (*Majority)(nil)

// NewMajority returns the majority system over n servers.
func NewMajority(n int) *Majority {
	if n <= 0 {
		panic(fmt.Sprintf("quorum: invalid majority system n=%d", n))
	}
	return &Majority{n: n}
}

// N implements System.
func (m *Majority) N() int { return m.n }

// Size returns floor(n/2)+1.
func (m *Majority) Size() int { return m.n/2 + 1 }

// Strict implements System; majorities always pairwise intersect.
func (m *Majority) Strict() bool { return true }

// Name implements System.
func (m *Majority) Name() string { return fmt.Sprintf("majority(n=%d)", m.n) }

// Pick returns a uniformly random majority.
func (m *Majority) Pick(r *rand.Rand) []int {
	return RandomSubset(r, m.n, m.Size())
}

// PickInto implements IntoPicker; see Probabilistic.PickInto for the
// stream-compatibility caveat.
func (m *Majority) PickInto(dst []int, r *rand.Rand) []int {
	return RandomSubsetInto(dst, r, m.n, m.Size())
}

// KSubsets implements KSubsets: any floor(n/2)+1 distinct servers are a
// majority.
func (m *Majority) KSubsets() {}

// Singleton routes every operation to the same single server. It is the
// degenerate strict system: minimal quorum size, load 1, availability 1.
// Experiments use it as the extreme point of the load/availability
// trade-off.
type Singleton struct {
	n      int
	server int
}

var _ System = (*Singleton)(nil)

// NewSingleton returns the singleton system over n servers that always picks
// the given server.
func NewSingleton(n, server int) *Singleton {
	if n <= 0 || server < 0 || server >= n {
		panic(fmt.Sprintf("quorum: invalid singleton system n=%d server=%d", n, server))
	}
	return &Singleton{n: n, server: server}
}

// N implements System.
func (s *Singleton) N() int { return s.n }

// Size implements System.
func (s *Singleton) Size() int { return 1 }

// Strict implements System.
func (s *Singleton) Strict() bool { return true }

// Name implements System.
func (s *Singleton) Name() string { return fmt.Sprintf("singleton(n=%d)", s.n) }

// Pick returns the fixed server.
func (s *Singleton) Pick(r *rand.Rand) []int { return s.PickInto(nil, r) }

// PickInto implements IntoPicker.
func (s *Singleton) PickInto(dst []int, _ *rand.Rand) []int {
	return append(dst[:0], s.server)
}

// All is the read-nothing-miss system whose only quorum is the full server
// set. It has perfect intersection and load 1; a single crash disables it.
type All struct {
	n int
}

var _ System = (*All)(nil)

// NewAll returns the system whose single quorum is all n servers.
func NewAll(n int) *All {
	if n <= 0 {
		panic(fmt.Sprintf("quorum: invalid all system n=%d", n))
	}
	return &All{n: n}
}

// N implements System.
func (a *All) N() int { return a.n }

// Size implements System.
func (a *All) Size() int { return a.n }

// Strict implements System.
func (a *All) Strict() bool { return true }

// Name implements System.
func (a *All) Name() string { return fmt.Sprintf("all(n=%d)", a.n) }

// Pick returns every server.
func (a *All) Pick(r *rand.Rand) []int { return a.PickInto(nil, r) }

// PickInto implements IntoPicker.
func (a *All) PickInto(dst []int, _ *rand.Rand) []int {
	dst = dst[:0]
	for i := 0; i < a.n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// RandomSubset returns a uniformly random k-subset of {0, ..., n-1} using a
// partial Fisher–Yates shuffle, costing O(n) setup amortized away by reusing
// no state: the straightforward O(n) version keeps the code obviously
// correct and n is small (tens to hundreds of servers) in every experiment.
func RandomSubset(r *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("quorum: subset size %d exceeds universe %d", k, n))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k:k]
}

// RandomSubsetInto fills dst (truncated first) with a uniformly random
// k-subset of {0, ..., n-1} using Floyd's sampling algorithm: for each
// j in [n-k, n) pick t uniformly from [0, j]; take t unless already taken,
// else take j. It allocates nothing when cap(dst) >= k. The duplicate check
// is a linear scan — O(k²) worst case, but k is tens at most in every
// experiment and the scan beats a map or bitset allocation. Note the
// resulting stream differs from RandomSubset's Fisher–Yates: both are
// uniform, but a seeded replay must use one or the other consistently.
func RandomSubsetInto(dst []int, r *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("quorum: subset size %d exceeds universe %d", k, n))
	}
	dst = dst[:0]
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		taken := false
		for _, v := range dst {
			if v == t {
				taken = true
				break
			}
		}
		if taken {
			dst = append(dst, j)
		} else {
			dst = append(dst, t)
		}
	}
	return dst
}

// Overlaps reports whether the two quorums share at least one server.
func Overlaps(a, b []int) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[int]struct{}, len(a))
	for _, s := range a {
		set[s] = struct{}{}
	}
	for _, s := range b {
		if _, ok := set[s]; ok {
			return true
		}
	}
	return false
}
