package main

import (
	"math/rand"
	"runtime"
)

// workload is one closed-loop traffic shape. Sizes are fixed per
// workload so every latency distribution is unimodal; the seed chooses
// the payload bytes and nothing else.
type workload struct {
	name    string
	why     string
	size    int  // request bytes
	echo    bool // the reply is the request, compared byte for byte
	clients int  // concurrent closed-loop callers

	// The reference load's nominal speed on this workload's shape
	// (reference.go): its lower-quartile call time and its calls per
	// second on the machine the benchmark was written on. They only fix
	// the scale of the reported figures; any machine gives the same
	// comparison between two commits.
	refP25Ns, refCallsPerS float64
}

// inputCount is how many distinct payloads a run cycles through (a
// power of two: the loop masks, it does not divide).
const inputCount = 64

// contendedClients is min(nproc, 4), and at least two so the workload
// keeps its meaning on a one-CPU machine.
func contendedClients() int {
	return max(2, min(runtime.GOMAXPROCS(0), 4))
}

func workloads() []workload {
	return []workload{
		{
			name: "null_rpc", size: 0, clients: 1, refP25Ns: 455, refCallsPerS: 1030e3,
			why: "0-byte request, null reply: per-message cost (headers, msg allocation, timers, demux) is all the work; one fragment, no per-byte work",
		},
		{
			name: "bulk_16k", size: 16 * 1024, clients: 1, refP25Ns: 10400, refCallsPerS: 38.5e3,
			why: "16 KB request, null reply: 12 fragments per call, so FRAGMENT split/reassembly and per-frame cost dominate while SELECT and CHANNEL barely register",
		},
		{
			name: "echo_4k", size: 4 * 1024, echo: true, clients: 1, refP25Ns: 3800, refCallsPerS: 104e3,
			why: "4 KB request echoed and compared: reply-direction fragmentation, client reassembly and multi-frame ledger blobs, so a send-path gain paid for on the reply path shows",
		},
		{
			name: "contended", size: 64, echo: true, clients: contendedClients(), refP25Ns: 665, refCallsPerS: 1090e3,
			why: "min(nproc,4) clients, 64-byte echo through the channel pools: shared maps, locks and the collector do the work; sharding shows here and nowhere else",
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs generates the run's payloads from the seed: the same seed
// gives the same bytes, another seed other bytes of the same sizes.
func (w workload) inputs(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]byte, inputCount)
	for i := range in {
		if w.size > 0 {
			in[i] = make([]byte, w.size)
			rng.Read(in[i])
		}
	}
	return in
}
