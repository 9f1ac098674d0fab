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
// There is one client type, register.Keyspace, on every runtime: the
// register package's internal operation transition table, driven by one
// package-internal pipeline per shard — one shard, or several striped
// across keys. Its operations are declared once (Read, ReadAtomic, Write,
// WriteMulti and their …AsyncFunc forms), and tcp.Client embeds it, adding
// only what belongs to the sockets. A blocking call is an asynchronous one
// waited on at once, so a caller issuing blocking calls from one goroutine
// keeps the paper's one pending operation per process, and asynchronous
// calls keep many registers in flight. Every cell below yields a Keyspace;
// one blessed constructor per cell:
//
//	              tcp (sockets)      register cores (sim, custom)
//	one shard     tcp.Dial           register.NewKeyspace
//	sharded       tcp.DialKeyspace   register.NewKeyspaceOver
//	many engines  tcp.DialSet        register.NewKeyspacesOver
//
// The last row is several processes sharing one connection set: each engine
// keeps its own writer identity, pick stream, monotone cache and retry
// budget, while the sockets, the op-id-residue reply demultiplexing and the
// suspicion table are the set's (aco.RunTCP runs a job's processes so, one
// socket per server whatever the process count). tcp.Dial and
// tcp.DialKeyspace are a set with one engine, closed with it.
//
// The second column is what the first is built from: NewKeyspace takes a
// raw send function, which is how the discrete-event simulator drives it, and
// NewKeyspaceOver a transport.Transport; the simulator also passes
// PipeClock(sim.Clock), so deadlines run on virtual time. Replies enter
// either one way, through the typed calls of transport.ReplySink: the tcp
// reader walks each frame into them, the simulator's process nodes
// type-switch each message into them, and a keyspace dispatches the boxed
// replies of a transport without a ReplyBinder into them. Every cell is
// configured by one struct, register.Settings: the register class
// (monotone, read repair, b-masking, a membership view, an asymmetric write
// system), the deadline and retry budget, and the instruments. Register alone reads it — Settings.Engine validates it and
// builds the engine, register.ApplyPipeline the pipeline option — so no
// adapter translates its fields and a bad setting is refused with the same
// error everywhere. The simulator runner takes a Settings value; each tcp
// With* option sets one of its fields (tcp keeps setters because DialSet
// layers a set's options under each engine's, and adds only the writer,
// seed and batch histogram of its own). Quorum exhaustion is
// register.ErrQuorumUnavailable everywhere.
//
// The three tcp constructors share one construction path, one default
// deadline (2s) and one data path: requests coalesced into batch frames by a
// writer goroutine per connection, one server loop per connection coalescing
// its replies, and replies delivered a whole frame at a time
// (transport.ReplySink). Register values must be in the wire codec's value
// union on every runtime, the simulator included: every write entry refuses
// anything else with msg.ErrUnsupportedValue before sending (msg.CheckValue).
//
// The cmd/ tools regenerate every experiment at paper scale; EXPERIMENTS.md
// records paper-versus-measured outcomes. The benchmark lives in bench/
// (BENCHMARK.json declares it; bench/README.md explains it).
package probquorum
