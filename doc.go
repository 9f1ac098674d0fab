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
// Three client shapes ride over three runtimes, and all three are one
// operation engine — register.Operation's transition table driven by a
// register.Pipeline — at different depths: a blocking client is a pipeline
// of depth one (the paper's one pending operation per process), a pipelined
// client keeps many registers in flight, and a keyspace shards pipelines
// across keys. One blessed constructor per cell:
//
//	            cluster (goroutines)         tcp (sockets)        register cores (sim, custom)
//	depth 1     (*cluster.Cluster).NewClient   tcp.Dial             register.NewClient
//	pipelined   (*cluster.Cluster).NewPipeline tcp.DialPipelined    register.NewPipeline(Over)
//	keyspace    (*cluster.Cluster).NewKeyspace tcp.DialKeyspace     register.NewKeyspace(Over)
//
// The third column is what the first two are built from: the protocol cores
// take a raw send function (or a transport.Transport via the ...Over
// variants and NewClient), which is how the discrete-event simulator and the
// tests drive them. Every cell is configured through the same surface —
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
