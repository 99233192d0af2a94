package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/session"
	"repro/internal/sweep"
)

// servedClients is the number of closed-loop clients: every real
// caller (dtmsweep -remote, the cluster router, peer-fill) waits for
// its reply before sending the next request.
const servedClients = 2

// seqLen bounds the pre-generated sequence; no run gets near it.
const seqLen = 1 << 17

// reqIDHeader carries a request's sequence index from the traced
// run's client transport to its timing handler.
const reqIDHeader = "X-Perfbench-Req"

type reqIDKey struct{}

// tagTransport stamps the sequence index found in the request context
// onto the outgoing request, so the server-side wrappers can match
// their timings to the client's.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// servedPhase drives one in-process dtmserved with closed-loop clients
// consuming the seeded sequence.
type servedPhase struct {
	seed   int64
	base   string
	seq    []item
	g      *gate
	traced bool // record client request times and time frames individually
	http   *http.Client

	next  atomic.Int64
	items atomic.Int64  // completed sequence items
	wall  time.Duration // total time the clients ran

	coldReq, coldTTFR, cachedReq samples // ms
	servedRecords                atomic.Int64
	// sessions, sessionFrames and sessionStreamNS count the live
	// sessions, their frames and their stream time. session_frames_per_s
	// is frames over stream time, which unlike a per-session median does
	// not jump between sessions that streamed alone and sessions that
	// shared the CPU with cold jobs.
	sessions, sessionFrames, sessionStreamNS, sessionBytes atomic.Int64
	sessOpen, sessEvent                                    samples // ms
	replayFPS                                              samples

	specStreamsMu sync.Mutex
	specStreams   map[int][]byte // first served stream per pool spec

	// Filled in traced runs only.
	reqClientMS sync.Map // sequence index -> client-observed ms
	frameGap    samples  // µs between received frames
}

func newServedPhase(seed int64, base string, g *gate, traced bool) *servedPhase {
	p := &servedPhase{
		seed:        seed,
		base:        base,
		seq:         genSequence(seed, seqLen),
		g:           g,
		traced:      traced,
		specStreams: map[int][]byte{},
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * servedClients
	p.http = &http.Client{Transport: tagTransport{base: tr}}
	return p
}

// run lets the clients work through the sequence until the budget is
// spent; every client finishes the item it holds. Successive calls
// continue the sequence.
func (p *servedPhase) run(ctx context.Context, budget time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(p.base)
			cl.HTTP = p.http
			for time.Since(start) < budget && ctx.Err() == nil {
				i := int(p.next.Add(1) - 1)
				if i >= len(p.seq) {
					return
				}
				it := p.seq[i]
				var err error
				if it.session {
					err = p.doSession(ctx, i, it)
				} else {
					err = p.doSweep(ctx, cl, i, it)
				}
				p.g.op(err)
				p.items.Add(1)
			}
		}()
	}
	wg.Wait()
	p.wall += time.Since(start)
}

// doSweep sends one sweep request and checks its stream against the
// first stream served for the same spec.
func (p *servedPhase) doSweep(ctx context.Context, cl *client.Client, i int, it item) error {
	spec := servedSpec(p.seed, it.spec)
	var recs []sweep.Record
	var first time.Time
	ctx = context.WithValue(ctx, reqIDKey{}, i)
	t0 := time.Now()
	_, err := cl.Stream(ctx, client.Request{Spec: spec}, func(r sweep.Record) error {
		if first.IsZero() {
			first = time.Now()
		}
		recs = append(recs, r)
		return nil
	})
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("sweep request %d (spec %d): %w", i, it.spec, err)
	}
	if it.cold {
		p.coldReq.addDur(d, time.Millisecond)
		p.coldTTFR.addDur(first.Sub(t0), time.Millisecond)
	} else {
		p.cachedReq.addDur(d, time.Millisecond)
	}
	if p.traced {
		p.reqClientMS.Store(i, float64(d)/float64(time.Millisecond))
	}
	p.servedRecords.Add(int64(len(recs)))
	stream, err := canonicalStream(spec.Expand(), recs)
	if err != nil {
		return err
	}
	p.specStreamsMu.Lock()
	prev, seen := p.specStreams[it.spec]
	if !seen {
		p.specStreams[it.spec] = stream
	}
	p.specStreamsMu.Unlock()
	if seen && !bytes.Equal(prev, stream) {
		return fmt.Errorf("sweep request %d: spec %d served two different streams", i, it.spec)
	}
	return nil
}

// doSession opens a session, posts its events, streams it unpaced to
// its terminal, fetches its log and replays it; the replay must be
// byte-identical to the live stream.
func (p *servedPhase) doSession(ctx context.Context, i int, it item) error {
	ctx = context.WithValue(ctx, reqIDKey{}, i)
	t0 := time.Now()
	var info struct {
		ID string `json:"id"`
	}
	body, err := json.Marshal(it.open)
	if err != nil {
		return err
	}
	if err := p.call(ctx, http.MethodPost, "/v1/session", body, &info); err != nil {
		return fmt.Errorf("session %d open: %w", i, err)
	}
	p.sessOpen.addDur(time.Since(t0), time.Millisecond)
	for _, ev := range it.events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		te := time.Now()
		if err := p.call(ctx, http.MethodPost, "/v1/session/"+info.ID+"/event", b, nil); err != nil {
			return fmt.Errorf("session %d event %s: %w", i, ev.Type, err)
		}
		p.sessEvent.addDur(time.Since(te), time.Millisecond)
	}

	ts := time.Now()
	live, frames, err := p.readStream(ctx, http.MethodGet, "/v1/session/"+info.ID+"/stream", nil, p.traced)
	streamDur := time.Since(ts)
	if err != nil {
		return fmt.Errorf("session %d stream: %w", i, err)
	}
	if frames == 0 {
		return fmt.Errorf("session %d streamed no frames", i)
	}
	if !bytes.Contains(live, []byte("event: done\n")) {
		return fmt.Errorf("session %d did not end with done: %.200s", i, live[max(0, len(live)-200):])
	}
	p.sessions.Add(1)
	p.sessionFrames.Add(int64(frames))
	p.sessionStreamNS.Add(int64(streamDur))
	p.sessionBytes.Add(int64(len(live)))

	var log bytes.Buffer
	if err := p.callRaw(ctx, http.MethodGet, "/v1/session/"+info.ID+"/log", nil, &log); err != nil {
		return fmt.Errorf("session %d log: %w", i, err)
	}
	tr := time.Now()
	replay, rframes, err := p.readStream(ctx, http.MethodPost, "/v1/session/replay", log.Bytes(), false)
	if err != nil {
		return fmt.Errorf("session %d replay: %w", i, err)
	}
	p.replayFPS.add(float64(rframes) / time.Since(tr).Seconds())
	if !bytes.Equal(live, replay) {
		return fmt.Errorf("session %d: replay (sha256 %.12s) differs from live stream (sha256 %.12s)", i, digest(replay), digest(live))
	}
	return nil
}

// call sends a JSON request and decodes the JSON answer into out
// (ignored when nil).
func (p *servedPhase) call(ctx context.Context, method, path string, body []byte, out any) error {
	var buf bytes.Buffer
	if err := p.callRaw(ctx, method, path, body, &buf); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// callRaw sends a request and copies a 200 answer's body into w.
func (p *servedPhase) callRaw(ctx context.Context, method, path string, body []byte, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// readStream reads an SSE stream whole, counting its frames. With
// timed set it also records the gap between consecutive frames.
func (p *servedPhase) readStream(ctx context.Context, method, path string, body []byte, timed bool) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	frameLine := []byte("event: " + session.StreamFrame + "\n")
	if !timed {
		b, err := io.ReadAll(resp.Body)
		return b, bytes.Count(b, frameLine), err
	}
	var out bytes.Buffer
	r := bufio.NewReader(resp.Body)
	frames := 0
	var last time.Time
	for {
		line, err := r.ReadSlice('\n')
		out.Write(line)
		if bytes.Equal(line, frameLine) {
			now := time.Now()
			if frames > 0 {
				p.frameGap.addDur(now.Sub(last), time.Microsecond)
			}
			last = now
			frames++
		}
		if err == io.EOF {
			return out.Bytes(), frames, nil
		}
		if err != nil && err != bufio.ErrBufferFull {
			return nil, 0, err
		}
	}
}

// servedSpecs returns the pool specs the phase served, in index order.
func (p *servedPhase) servedSpecs() []int {
	p.specStreamsMu.Lock()
	defer p.specStreamsMu.Unlock()
	out := make([]int, 0, len(p.specStreams))
	for s := range p.specStreams {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// streamOf returns the first stream served for pool spec s.
func (p *servedPhase) streamOf(s int) ([]byte, bool) {
	p.specStreamsMu.Lock()
	defer p.specStreamsMu.Unlock()
	b, ok := p.specStreams[s]
	return b, ok
}
