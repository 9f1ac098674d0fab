package register

import (
	"math/rand/v2"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// MustEngine is Settings.Engine for tests whose settings are valid by
// construction: it panics on the error instead of returning it.
func MustEngine(s Settings, writer int32, sys quorum.System, rnd *rand.Rand, extra ...Option) *Engine {
	e, err := s.Engine(writer, sys, rnd, extra...)
	if err != nil {
		panic(err)
	}
	return e
}

// DeliverReply hands one boxed reply to k's typed calls, as the sink a
// keyspace binds does for a transport without a ReplyBinder; any other
// payload is ignored. Tests that carry a NewKeyspace client's replies
// themselves — the simulator's script nodes, synchronous loopbacks — use it.
func DeliverReply(k *Keyspace, server int, payload any) {
	switch m := payload.(type) {
	case msg.ReadReply:
		k.ReplyBatch(server, []msg.ReadReply{m}, nil)
	case msg.WriteAck:
		k.ReplyBatch(server, nil, []msg.WriteAck{m})
	case msg.StaleEpoch:
		k.StaleEpoch(server, m)
	}
}
