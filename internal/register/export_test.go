package register

import (
	"math/rand/v2"

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
