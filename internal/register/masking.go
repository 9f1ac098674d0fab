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

// Vote is the b-masking read rule: of the (timestamp, value) pairs in
// replies it returns the one with the largest timestamp among those reported
// by more than b replies, and ok is false when no pair has that many votes.
// Pairs match on timestamp and value (reflect.DeepEqual), so b liars that
// fabricate identically still muster only b votes. Of pairs tied on the
// largest qualifying timestamp, the one that appears first in replies wins.
// With b = 0 every pair qualifies and the rule is the plain max-timestamp
// read.
func Vote(replies []msg.Tagged, b int) (best msg.Tagged, ok bool) {
	type group struct {
		tag   msg.Tagged
		count int
	}
	var groups []group
	for _, tag := range replies {
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
	for _, g := range groups {
		if g.count > b && (!ok || best.TS.Less(g.tag.TS)) {
			best, ok = g.tag, true
		}
	}
	return best, ok
}

// finishReadMasked resolves a completed read session under b-masking: the
// returned value is Vote's over the quorum's replies. ok is false when
// no pair has enough votes — the caller should retry with a fresh quorum.
// The monotone cache, if enabled, applies after masking, and only successful
// masked reads update it. Without masking it is finishRead.
func (e *Engine) finishReadMasked(s *readSession) (msg.Tagged, bool) {
	if e.maskB < 0 {
		return e.finishRead(s), true
	}
	e.guard.enter()
	defer e.guard.leave()
	best, ok := Vote(s.tags, e.maskB)
	if !ok {
		return msg.Tagged{}, false
	}
	return e.settle(s.Reg, best), true
}
