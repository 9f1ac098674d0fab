package register

import (
	"reflect"

	"probquorum/internal/msg"
)

// This file implements b-masking reads in the style of Malkhi–Reiter
// ("Byzantine Quorum Systems") and Malkhi–Reiter–Wright: a read accepts
// only a (timestamp, value) pair vouched for by MORE than b quorum members,
// taking the largest such timestamp. Up to b Byzantine servers inside the
// quorum can then never make a fabricated value win, because a fabrication
// musters at most b votes.
//
// Masking changes the failure mode: instead of possibly returning a
// fabricated value, a read can fail (no pair has enough votes) — the
// Las-Vegas flavor the paper's related work contrasts with Monte-Carlo
// behaviour. Drivers retry failed masked reads with a fresh quorum.
// Settings.Masking turns it on. The quorum size must exceed b for reads to
// ever succeed; sizes of at least 2b+1 keep the success probability high
// when at most b servers in the whole system are Byzantine.

// MaskingEnabled reports whether the engine masks reads.
func (e *Engine) MaskingEnabled() bool { return e.maskB >= 0 }

// MaskB returns the masking parameter (-1 when disabled).
func (e *Engine) MaskB() int { return e.maskB }

// FinishReadMasked resolves a completed read session under b-masking: the
// returned value is the maximum-timestamp (timestamp, value) pair reported
// by more than MaskB quorum members. ok is false when no pair has enough
// votes — the caller should retry with a fresh quorum. The monotone cache,
// if enabled, applies after masking, and only successful masked reads
// update it.
func (e *Engine) FinishReadMasked(s *ReadSession) (msg.Tagged, bool) {
	e.guard.enter()
	defer e.guard.leave()
	if e.maskB < 0 {
		return e.finishRead(s), true
	}
	type group struct {
		tag   msg.Tagged
		count int
	}
	var groups []group
	for i := range s.Quorum {
		if s.replied&(1<<uint(i)) == 0 {
			continue
		}
		tag := s.tags[i]
		found := false
		for gi := range groups {
			if groups[gi].tag.TS == tag.TS && reflect.DeepEqual(groups[gi].tag.Val, tag.Val) {
				groups[gi].count++
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{tag: tag, count: 1})
		}
	}
	best := msg.Tagged{}
	okAny := false
	for _, g := range groups {
		if g.count <= e.maskB {
			continue
		}
		if !okAny || best.TS.Less(g.tag.TS) {
			best = g.tag
			okAny = true
		}
	}
	if !okAny {
		return msg.Tagged{}, false
	}
	if e.monotone {
		if cached, ok := e.cache[s.Reg]; ok && best.TS.Less(cached.TS) {
			e.cacheHits++
			return cached, true
		}
		e.cache[s.Reg] = best
	}
	return best, true
}
