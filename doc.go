// Package probquorum is a from-scratch Go reproduction of
//
//	Hyunyoung Lee and Jennifer L. Welch,
//	"Applications of Probabilistic Quorums to Iterative Algorithms",
//	ICDCS 2001.
//
// The paper defines a random register — a probabilistically regular shared
// read/write register that may return stale values — shows that the
// Malkhi–Reiter–Wright probabilistic quorum algorithm implements it, proves
// that iterative algorithms in the Üresin–Dubois asynchronously-contracting-
// operator (ACO) framework converge with probability 1 over such registers,
// and introduces a monotone variant with an expected convergence-time bound
// (Corollary 7) and a message-complexity advantage over strict quorum
// systems (Section 6.4).
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory):
//
//	quorum      probabilistic, majority, grid, and projective-plane systems
//	replica     the timestamped replica server state machine
//	register    the client protocol cores (read/write sessions, monotone cache)
//	sim         a deterministic discrete-event simulator (the paper's testbed)
//	cluster     a goroutine/channel runtime for the same protocol
//	transport   the protocol over real TCP sockets
//	aco         the Üresin–Dubois framework and the Alg. 1 runners
//	apps        APSP, transitive closure, widest paths, Bellman–Ford,
//	            Jacobi linear solving, arc consistency, approximate agreement
//	analysis    the paper's closed forms (Theorem 1, Theorem 4, Corollary 7,
//	            Eqns 1–3, Naor–Wool load)
//	experiments drivers regenerating every figure and table
//	trace       execution logs and checkers for conditions [R1]–[R5]
//
// # Client constructors
//
// Each runtime has one client type, and every client is one operation
// engine — register.Operation's transition table driven by a
// register.Pipeline, its one driver on every runtime, the simulator
// included — over a register.Keyspace: one shard is a single
// pipeline, more shards stripe pipelines across keys. A blocking call is an
// asynchronous one waited on at once, so a caller issuing blocking calls
// from one goroutine keeps the paper's one pending operation per process,
// and asynchronous calls keep many registers in flight. One blessed
// constructor per cell:
//
//	              cluster (goroutines)           tcp (sockets)      register cores (sim, custom)
//	one shard     (*cluster.Cluster).NewClient   tcp.Dial           register.NewPipeline(Over)
//	sharded       (*cluster.Cluster).NewKeyspace tcp.DialKeyspace   register.NewKeyspace(Over)
//	many engines                                 tcp.DialSet        register.NewKeyspacesOver
//
// The last row is several processes sharing one connection set: each engine
// keeps its own writer identity, pick stream, monotone cache and retry
// budget, while the sockets, the op-id-residue reply demultiplexing and the
// suspicion table are the set's (aco.RunTCP runs a job's workers so, one
// socket per server whatever the worker count). tcp.Dial and
// tcp.DialKeyspace are a set with one engine, closed with it.
//
// The third column is what the first two are built from: the protocol cores
// take a raw send function (or a transport.Transport via the ...Over
// variants), which is how the discrete-event simulator and the tests drive
// them; the simulator also passes PipeClock(sim.Clock), so deadlines run on
// virtual time. Every cell is configured through the same surface —
// register.Settings, translated by register.ApplyPipeline into the one
// PipelineOption list; the tcp and cluster With* options are thin wrappers
// over register.Settings, so option semantics cannot drift between
// transports. Quorum exhaustion is register.ErrQuorumUnavailable everywhere
// — the former per-transport error aliases in the tcp and cluster packages
// are gone, as is cluster's combined timeout-and-retries shim (use
// WithOpTimeout plus WithRetries).
//
// The three tcp constructors share one construction path, one default
// deadline (2s) and one data path: requests coalesced into batch frames by a
// writer goroutine per connection, one server loop per connection coalescing
// its replies, and replies delivered a whole frame at a time
// (transport.ReplySink). Register values written over tcp must be in the
// wire codec's value union; anything else is refused with
// msg.ErrUnsupportedValue.
//
// The cmd/ tools regenerate every experiment at paper scale; EXPERIMENTS.md
// records paper-versus-measured outcomes. The benchmark lives in bench/
// (BENCHMARK.json declares it; bench/README.md explains it).
package probquorum
