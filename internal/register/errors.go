package register

import "errors"

// ErrQuorumUnavailable is returned when an operation's retry budget is
// exhausted without any freshly picked quorum answering in full: the
// probabilistic quorum system could not find a live quorum. It is the single
// typed unavailability error shared by every transport — TCP and the
// simulator both surface it, so errors.Is works identically regardless of
// how messages travel.
var ErrQuorumUnavailable = errors.New("register: no live quorum answered (retries exhausted)")
