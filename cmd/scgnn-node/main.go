// Command scgnn-node runs one partition of a multi-process SC-GNN training
// fleet. It is deliberately thin: listen on a socket, serve the wire
// protocol, exit when the coordinator shuts the fleet down. Everything about
// the job — graph shard, partition vector, compression config — arrives over
// the control channel from the coordinator, scgnn-train -nodes.
//
// Usage:
//
//	scgnn-node -listen /tmp/scgnn/n0.sock
//	scgnn-node -listen 127.0.0.1:7400
//
// Addresses containing a path separator are unix sockets, anything else TCP.
package main

import (
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"strings"
	"time"

	"scgnn/internal/net"
)

func main() {
	var (
		listen  = flag.String("listen", "", "address to serve on (unix socket path or host:port)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-round deadline (a dead peer surfaces as a typed error after this long)")
		verbose = flag.Bool("v", false, "log transport events to stderr")
	)
	flag.Parse()
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "scgnn-node: -listen is required")
		os.Exit(2)
	}

	network := "tcp"
	if strings.ContainsRune(*listen, '/') {
		network = "unix"
		os.Remove(*listen) // a killed predecessor leaves its socket file behind
	}
	lis, err := stdnet.Listen(network, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-node:", err)
		os.Exit(1)
	}

	opts := net.NodeOptions{RoundTimeout: *timeout}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "scgnn-node: "+format+"\n", args...)
		}
	}
	node := net.NewNode(opts)
	if *verbose {
		fmt.Fprintf(os.Stderr, "scgnn-node: serving on %s\n", *listen)
	}
	node.Serve(lis)
	node.Close()
}
