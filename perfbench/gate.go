package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/sweep"
)

// pinnedDigests holds the SHA-256 of each workload's canonical record
// stream — ordered, elapsed_ms stripped — per GOARCH and seed. For the
// sweeps it covers the local sweep's stream; for served-mix the
// concatenated canonical streams of pool specs 0..pinnedPoolSpecs-1.
// Digests are per GOARCH because FMA contraction makes arm64 results
// differ in the last bits. A run of an unpinned seed prints the digest
// to pin on stderr.
//
// sweep-grid has no entry: its canonical stream is not reproducible
// between processes. Grid models are factored with linalg.MinDegree,
// whose heap breaks degree ties in the order it pushes neighbours,
// which is map iteration order; each factorization therefore rounds
// differently, and DVFS_Rel's damage thresholds amplify the last-bit
// differences into visible ones. Within one factorization the stream
// is deterministic, and that is what its runs check (see unpinned).
var pinnedDigests = map[string]map[string]map[int64]string{
	"sweep-fig3": {"amd64": {
		1: "6a448568d4a02ea5b47482166e7d3585b6fcc8b2e7789623c9f9cd9b880be0a0",
		2: "81e8c65e9b6a5593ca514b711e40b159730832ce2a842777379acae7f581f479",
		3: "298d0eebffe1c233fee75f5b0168f63814e983b3c0cb749997af106b81a53b32",
	}},
	"served-mix": {"amd64": {
		1: "032395912aadb9565add36b2245d58c43129e565cc998a582a98c0597e347293",
		2: "e78478dbf4cdde7a50deb94d3dd31d1cf2240b334f070661ce7e547b92969a46",
		3: "c5df765c57587e81ec4cb7b23dce28233fe16f77bc1236ed7f5bbab0a14eb372",
	}},
}

// unpinned names the workloads whose canonical stream cannot be pinned
// yet, with the program defect that prevents it; every run of them
// reports it.
var unpinned = map[string]string{
	"sweep-grid": "grid-mode results differ between processes (linalg.MinDegree breaks degree ties in map iteration order, so each factorization rounds differently)",
}

// pinnedPoolSpecs is how many leading pool specs the served-mix digest
// covers: always reached, since the first requests of a run are cold.
const pinnedPoolSpecs = 16

// canonicalStream encodes records as the canonical stream of jobs:
// expansion order, elapsed_ms stripped, one JSON document per line —
// what `dtmsweep -canonical -out jsonl` prints and dtmserved streams.
func canonicalStream(jobs []sweep.Job, recs []sweep.Record) ([]byte, error) {
	var buf bytes.Buffer
	sink := sweep.NewOrderedSink(sweep.StripElapsed(sweep.NewJSONLSink(&buf)), jobs)
	for _, r := range recs {
		if err := sink.Put(r); err != nil {
			return nil, err
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// gate counts the benchmark's operations and their failures. Any
// failure — an operation error or a digest mismatch — makes the run
// incorrect.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// op records one attempted operation; a non-nil err counts it failed.
func (g *gate) op(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.msgs) < 20 {
			g.msgs = append(g.msgs, err.Error())
		}
	}
}

// same records one comparison of two streams as an operation that
// fails unless they are byte-identical.
func (g *gate) same(what string, got, want []byte) {
	if !bytes.Equal(got, want) {
		g.op(fmt.Errorf("%s: stream differs (sha256 %.12s, want %.12s)", what, digest(got), digest(want)))
		return
	}
	g.op(nil)
}

// pinned checks a workload digest against the pinned table. Seeds
// without a pinned digest pass here; their gate is the cross-checks
// (traced = untraced, served = local, repeat = first) the runs make.
func (g *gate) pinned(workloadName string, seed int64, got string) {
	if unpinned[workloadName] != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: canonical stream not pinned: %s; canonical sha256 %s\n", workloadName, unpinned[workloadName], got)
		return
	}
	want, ok := pinnedDigests[workloadName][runtime.GOARCH][seed]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: no pinned digest for %s; canonical sha256 %s\n", workloadName, seed, runtime.GOARCH, got)
		return
	}
	if got != want {
		g.op(fmt.Errorf("%s seed %d: canonical sha256 %s, pinned %s", workloadName, seed, got, want))
		return
	}
	g.op(nil)
}

// counts returns attempted and failed operation counts.
func (g *gate) counts() (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

// report prints the recorded failure messages to stderr.
func (g *gate) report() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", m)
	}
}
