package cluster_test

import (
	"fmt"

	"probquorum/internal/cluster"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// A minimal deployment: five replica servers, a writer, and a monotone
// reader on strict majority quorums (so this example is deterministic; with
// probabilistic quorums the read could legally return an older value).
func Example() {
	c, err := cluster.New(cluster.Config{
		Servers: 5,
		Initial: map[msg.RegisterID]msg.Value{0: "initial"},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer c.Close()

	writer, err := c.NewClient(quorum.NewMajority(5), register.Settings{})
	if err != nil {
		fmt.Println(err)
		return
	}
	reader, err := c.NewClient(quorum.NewMajority(5), register.Settings{Monotone: true})
	if err != nil {
		fmt.Println(err)
		return
	}

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
// here through a disjoint singleton quorum — sees the value.
func ExampleClient_ReadAtomic() {
	c, err := cluster.New(cluster.Config{
		Servers: 3,
		Initial: map[msg.RegisterID]msg.Value{0: nil},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer c.Close()

	w, _ := c.NewClient(quorum.NewSingleton(3, 0), register.Settings{}) // writes land on server 0 only
	_ = w.Write(0, "v")

	r, _ := c.NewClient(quorum.NewAll(3), register.Settings{})
	tag, err := r.ReadAtomic(0) // reads and writes back to all replicas
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tag.Val)
	fmt.Println(c.Server(2).Get(0).Val) // the write-back reached server 2
	// Output:
	// v
	// v
}
