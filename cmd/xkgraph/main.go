// Command xkgraph builds and prints the protocol configurations shown
// in the paper's figures, demonstrating that each assembles cleanly from
// the composition spec language.
//
//	xkgraph          # all figures
//	xkgraph -fig 2   # just Figure 2
//
// Figure 1 is the paper's example kernel configuration (the standard
// Arpanet suite). Figure 2 is the VIP suite, with RPC, Psync and UDP all
// multiplexed over ETH and IP. Figure 3 shows the two layered-RPC
// configurations: (a) SELECT-CHANNEL-FRAGMENT-VIP and (b) the VIPsize
// composition that dynamically removes FRAGMENT.
package main

import (
	"flag"
	"fmt"
	"os"

	"xkernel"
)

// figure pairs a caption with a composition spec. Figure 3's two halves
// are measured stacks, so their specs are the stack table's.
type figure struct {
	caption string
	spec    string
}

var figures = map[int]figure{
	1: {
		caption: "Figure 1: example x-kernel configuration (Arpanet suite; eth/arp/ip/udp/icmp are built in)",
		spec:    ``, // the base graph alone
	},
	2: {
		caption: "Figure 2: VIP multiplexing Sprite RPC, Psync and a virtual-IP client over ETH and IP",
		spec: `
vip       eth ip
mrpc      vip
fragment  vip
psync     fragment
`,
	},
	3: {
		caption: "Figure 3(a): layered RPC — SELECT-CHANNEL-FRAGMENT-VIP",
		spec:    xkernel.StackSpec(xkernel.StackLRPCVIP),
	},
	4: {
		caption: "Figure 3(b): FRAGMENT moved below VIPsize — SELECT-CHANNEL-VIPsize{FRAGMENT-VIPaddr, VIPaddr}",
		spec:    xkernel.StackSpec(xkernel.StackVIPsize),
	},
}

func main() {
	fig := flag.Int("fig", 0, "print only this figure (1-4; 3 and 4 are Figure 3's two halves)")
	flag.Parse()

	for n := 1; n <= 4; n++ {
		if *fig != 0 && *fig != n {
			continue
		}
		f := figures[n]
		network := xkernel.NewNetwork(xkernel.NetConfig{})
		k, err := xkernel.NewKernel(xkernel.Config{
			Name:    fmt.Sprintf("fig%d", n),
			Eth:     xkernel.EthAddr{2, 0, 0, 0, 0, byte(n)},
			Addr:    xkernel.IP(10, 0, 0, byte(n)),
			Network: network,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkgraph: %v\n", err)
			os.Exit(1)
		}
		if err := k.Compose(f.spec); err != nil {
			fmt.Fprintf(os.Stderr, "xkgraph: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(f.caption)
		fmt.Print(k.Graph())
		fmt.Println()
	}
}
