package tcp_test

import (
	"fmt"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

// listen starts n replica servers on loopback, each holding initial, and
// returns their addresses and a function that stops them.
func listen(n int, initial map[msg.RegisterID]msg.Value) ([]string, func(), error) {
	var servers []*tcp.Server
	stop := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs[i] = srv.Addr()
	}
	return addrs, stop, nil
}

// A minimal deployment: five replica servers, a writer, and a monotone
// reader on strict majority quorums (so this example is deterministic; with
// probabilistic quorums the read could legally return an older value).
func Example() {
	addrs, stop, err := listen(5, map[msg.RegisterID]msg.Value{0: "initial"})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer stop()

	writer, err := tcp.Dial(addrs, quorum.NewMajority(5), tcp.WithWriter(5))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer writer.Close()
	reader, err := tcp.Dial(addrs, quorum.NewMajority(5), tcp.WithMonotone(), tcp.WithSeed(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer reader.Close()

	if err := writer.Write(0, "hello"); err != nil {
		fmt.Println(err)
		return
	}
	tag, err := reader.Read(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tag.Val, tag.TS)
	// Output:
	// hello 1@5
}

// The ABD-style atomic read: after it returns, every subsequent read —
// here through a singleton quorum the write never reached — sees the value.
func ExampleClient_ReadAtomic() {
	addrs, stop, err := listen(3, map[msg.RegisterID]msg.Value{0: nil})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer stop()

	w, err := tcp.Dial(addrs, quorum.NewSingleton(3, 0), tcp.WithWriter(1)) // writes land on server 0 only
	if err != nil {
		fmt.Println(err)
		return
	}
	defer w.Close()
	if err := w.Write(0, "v"); err != nil {
		fmt.Println(err)
		return
	}

	r, err := tcp.Dial(addrs, quorum.NewAll(3), tcp.WithWriter(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	tag, err := r.ReadAtomic(0) // reads and writes back to all replicas
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tag.Val)

	last, err := tcp.Dial(addrs, quorum.NewSingleton(3, 2), tcp.WithWriter(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer last.Close()
	tag, err = last.Read(0) // the write-back reached server 2
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tag.Val)
	// Output:
	// v
	// v
}
