package experiments

import (
	"fmt"

	"probquorum/internal/analysis"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
)

// ByzConfig parameterizes the Byzantine-masking experiment (extension; the
// failure model of Malkhi–Reiter [18] that motivated probabilistic
// quorums): f of the n replicas fabricate read replies with an enormous
// timestamp and swallow writes. The experiment measures what an unmasked
// reader returns versus a b-masking reader, against the analytic
// vulnerability probability P(quorum contains more than b liars).
type ByzConfig struct {
	// N is the number of replicas (default 20).
	N int
	// F is the number of Byzantine replicas (default 3).
	F int
	// B is the masking parameter (default F: tolerate all of them).
	B int
	// Ks lists quorum sizes to sweep (default {3, 5, 7, 9}).
	Ks []int
	// Trials is the Monte-Carlo count per k (default 20000).
	Trials int
	// Seed seeds the sampling.
	Seed uint64
}

func (c *ByzConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 20
	}
	if c.F == 0 {
		c.F = 3
	}
	if c.B == 0 {
		c.B = c.F
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{3, 5, 7, 9}
	}
	if c.Trials == 0 {
		c.Trials = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ByzRow is one quorum size's outcome rates.
type ByzRow struct {
	K int
	// UnmaskedFabricated is the rate at which a plain max-timestamp read
	// returned the fabrication.
	UnmaskedFabricated float64
	// UnmaskedBound is the analytic probability the quorum touches at
	// least one liar: 1 − C(n−f, k)/C(n, k).
	UnmaskedBound float64
	// MaskedFabricated is the rate at which the b-masking read returned
	// the fabrication (must stay below MaskedBound).
	MaskedFabricated float64
	// MaskedFailed is the rate at which the masked read had no qualified
	// value and would retry.
	MaskedFailed float64
	// MaskedCorrect is the rate at which the masked read returned the
	// honest written value.
	MaskedCorrect float64
	// MaskedBound is the analytic vulnerability P(> b liars in quorum).
	MaskedBound float64
}

// ByzResult is the full masking experiment.
type ByzResult struct {
	Config ByzConfig
	Rows   []ByzRow
}

// RunByzantine measures masked and unmasked read outcomes under Byzantine
// replicas. Each trial builds a fresh replica array (servers 0..f-1
// Byzantine), performs one full-quorum honest write, then one read of each
// flavor: a quorum drawn as a register engine draws it, each member's reply
// from the real replica state machines, and the register's b-masking vote
// rule (register.Vote) over the replies — with b = 0 for the unmasked read,
// which is then the plain max-timestamp read.
func RunByzantine(cfg ByzConfig) (ByzResult, error) {
	cfg.applyDefaults()
	if cfg.F >= cfg.N {
		return ByzResult{}, fmt.Errorf("byzantine: f=%d must be below n=%d", cfg.F, cfg.N)
	}
	if cfg.B < 0 {
		return ByzResult{}, fmt.Errorf("byzantine: masking parameter %d is negative", cfg.B)
	}
	res := ByzResult{Config: cfg}
	const poison = "FABRICATED"
	// The honest write every trial sends to every replica (the Byzantine
	// ones swallow it): a writer's first write, to the full quorum, so masked
	// reads always have an honest candidate with n−f votes available
	// somewhere; the read quorum decides what they see.
	write := msg.WriteReq{Reg: 0, Op: 1, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: "honest"}}
	var replies []msg.Tagged
	for _, k := range cfg.Ks {
		sys := quorum.NewProbabilistic(cfg.N, k)
		seedR := rng.Derive(cfg.Seed, fmt.Sprintf("byz.k=%d", k))
		var unmaskedFab, maskedFab, maskedFail, maskedOK int
		for trial := 0; trial < cfg.Trials; trial++ {
			appliers := make([]replica.Applier, cfg.N)
			initial := map[msg.RegisterID]msg.Value{0: "initial"}
			for i := 0; i < cfg.N; i++ {
				store := replica.New(msg.NodeID(i), initial)
				if i < cfg.F {
					appliers[i] = replica.NewByzantine(store, poison)
				} else {
					appliers[i] = store
				}
				appliers[i].Apply(write)
			}
			read := func(b int) (msg.Tagged, bool) {
				replies = replies[:0]
				for _, srv := range sys.Pick(seedR) {
					if rep, ok := appliers[srv].Apply(msg.ReadReq{Reg: 0, Op: 1}); ok {
						replies = append(replies, rep.(msg.ReadReply).Tag)
					}
				}
				return register.Vote(replies, b)
			}
			if tag, _ := read(0); tag.Val == poison {
				unmaskedFab++
			}
			tag, ok := read(cfg.B)
			switch {
			case !ok:
				maskedFail++
			case tag.Val == poison:
				maskedFab++
			case tag.Val == "honest":
				maskedOK++
			}
		}
		t := float64(cfg.Trials)
		res.Rows = append(res.Rows, ByzRow{
			K:                  k,
			UnmaskedFabricated: float64(unmaskedFab) / t,
			UnmaskedBound:      1 - analysis.Hypergeometric(cfg.N, cfg.F, k, 0),
			MaskedFabricated:   float64(maskedFab) / t,
			MaskedFailed:       float64(maskedFail) / t,
			MaskedCorrect:      float64(maskedOK) / t,
			MaskedBound:        analysis.MaskingVulnerableProb(cfg.N, k, cfg.F, cfg.B),
		})
	}
	return res, nil
}

// report prints the masking rows: percentages as text, fractions in the CSV.
func (r ByzResult) report() Report {
	t := Table{Cols: []Col{{"k", "k", 0, 0}, {"unmasked fab", "unmasked_fabricated", 0, 6},
		{"P(touch liar)", "unmasked_bound", 0, 6}, {"masked fab", "masked_fabricated", 0, 6}, {"P(>b liars)", "masked_bound", 0, 6},
		{"masked fail", "masked_failed", 0, 6}, {"masked correct", "masked_correct", 0, 6}}}
	for _, row := range r.Rows {
		t.Add(row.K, Pct(row.UnmaskedFabricated), Pct(row.UnmaskedBound), Pct(row.MaskedFabricated),
			Pct(row.MaskedBound), Pct(row.MaskedFailed), Pct(row.MaskedCorrect))
	}
	return titled(fmt.Sprintf("Byzantine masking: n=%d, f=%d fabricating replicas, b=%d (%d trials per k)",
		r.Config.N, r.Config.F, r.Config.B, r.Config.Trials), t)
}
