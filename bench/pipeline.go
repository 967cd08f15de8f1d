package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/mapserver"
	"repro/internal/obs"
	"repro/internal/sniffer"
)

const (
	// queueBatches is the capwire client's send queue (OverflowBlock).
	queueBatches = 256
	// trackStep is the sim-second step of every Track call.
	trackStep = 5
)

// pipeline is one running system under test, wired the way cmd/marauder
// wires it with -agents-listen: a capwire.Server feeding
// engine.IngestCapturesFrom, one capwire.Client agent, and the map server
// over HTTP. The benchmark reaches it only through those public calls.
type pipeline struct {
	eng    *engine.Engine
	srv    *capwire.Server
	client *capwire.Client
	state  *mapserver.State
	web    *http.Server
	url    string
	hc     *http.Client
	rec    *recorder
	serves sync.WaitGroup

	// reset, when set, runs in the ingest callback ahead of each batch.
	reset func(caps []sniffer.Capture)

	// base offsets this pipeline's span keys from earlier pipelines' in
	// the same run.
	base int64

	// Sender side, written by the one goroutine that sends: when each
	// batch's Send call began.
	sendAt     []stamp
	sentFrames int

	mu sync.Mutex
	// ingestedAt is when each batch's Ingest callback returned. Batches
	// are ingested in the order they were sent, so it aligns with sendAt.
	ingestedAt []stamp
	shadow     *obs.Store // obs.ingest shadow target, traced runs only

	ingested atomic.Int64
	latest   atomic.Uint64 // Float64bits of the newest ingested capture time

	// Read side, used by one goroutine at a time.
	frames int64
	tracks int64
	body   bytes.Buffer
}

// newPipeline starts the system: knowledge build, engine, capwire server
// and client, and map server, all on loopback.
func newPipeline(w *world, rec *recorder) (*pipeline, error) {
	know := core.NewKnowledge(w.infos)
	eng, err := engine.New(engine.Config{
		Know:      know,
		Store:     obs.NewStore(),
		Localizer: core.MLocalizer{},
		WindowSec: windowSec,
	})
	if err != nil {
		return nil, err
	}
	p := &pipeline{eng: eng, rec: rec, base: rec.keyBase()}
	if rec != nil {
		p.shadow = obs.NewStore()
	}
	p.latest.Store(math.Float64bits(math.Inf(-1)))
	if p.srv, err = capwire.NewServer(capwire.ServerConfig{Ingest: p.ingest}); err != nil {
		return nil, err
	}
	wireLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.serves.Add(1)
	go func() {
		defer p.serves.Done()
		_ = p.srv.Serve(wireLis) // returns net.ErrClosed after Close
	}()
	p.client, err = capwire.NewClient(capwire.ClientConfig{
		Addr:         wireLis.Addr().String(),
		AgentID:      "bench",
		Overflow:     capwire.OverflowBlock,
		QueueBatches: queueBatches,
	})
	if err != nil {
		p.srv.Close()
		p.serves.Wait()
		return nil, err
	}
	p.state = mapserver.NewState()
	p.state.APsFromKnowledge(know)
	webLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.web = &http.Server{Handler: mapserver.NewHandler(p.state, mapserver.HandlerOpts{}), ReadHeaderTimeout: 10 * time.Second}
	p.serves.Add(1)
	go func() {
		defer p.serves.Done()
		_ = p.web.Serve(webLis) // returns http.ErrServerClosed after Close
	}()
	p.url = "http://" + webLis.Addr().String() + "/api/state"
	p.hc = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	return p, nil
}

// close stops every server and client goroutine and waits for them.
func (p *pipeline) close() {
	p.client.Close()
	p.srv.Close()
	if p.web != nil {
		p.web.Close()
		p.hc.CloseIdleConnections()
	}
	p.serves.Wait()
}

// send hands one batch to the capwire client. Traced, it records the
// call, whether the queue was full when it was made, and on 1 in 16
// batches re-encodes and re-decodes the batch to time the codec.
func (p *pipeline) send(ctx context.Context, caps []sniffer.Capture) error {
	if len(caps) == 0 {
		return nil
	}
	traced := p.rec.active()
	blocked := traced && p.client.Stats().Pending >= queueBatches
	start := now()
	err := p.client.Send(ctx, caps)
	end := now()
	if err != nil {
		return fmt.Errorf("capwire send: %w", err)
	}
	k := p.base + int64(len(p.sendAt))
	p.sendAt = append(p.sendAt, start)
	p.sentFrames += len(caps)
	if traced {
		id := p.rec.add(span{Name: spanSend, Key: k, N: len(caps), Blocked: blocked}, start, end)
		if k%shadowEvery == 0 {
			return p.shadowCodec(id, k, caps)
		}
	}
	return nil
}

// shadowCodec times the agent's encode (BatchFromCaptures, AppendMessage)
// and the server's decode (DecodeMessage, ToCaptures) on one batch.
func (p *pipeline) shadowCodec(parent uint64, k int64, caps []sniffer.Capture) error {
	t0 := now()
	b, err := capwire.BatchFromCaptures(uint64(k+1), caps)
	if err != nil {
		return err
	}
	buf, err := capwire.AppendMessage(nil, b)
	if err != nil {
		return err
	}
	t1 := now()
	msg, _, err := capwire.DecodeMessage(buf)
	if err != nil {
		return err
	}
	decoded, ok := msg.(*capwire.Batch)
	if !ok {
		return fmt.Errorf("capwire decode: got %T, want *capwire.Batch", msg)
	}
	decoded.ToCaptures()
	t2 := now()
	p.rec.add(span{Parent: parent, Name: spanEncode, Key: k, N: len(caps), Bytes: len(buf)}, t0, t1)
	p.rec.add(span{Parent: parent, Name: spanDecode, Key: k, N: len(caps), Bytes: len(buf)}, t1, t2)
	return nil
}

// ingest is the capwire server's Ingest callback: the benchmark owns it,
// so it can time engine.IngestCapturesFrom and note when each batch
// became visible to snapshots.
func (p *pipeline) ingest(agent string, caps []sniffer.Capture) int {
	if p.reset != nil {
		p.reset(caps)
	}
	traced := p.rec.active()
	entry := now()
	n := p.eng.IngestCapturesFrom("agent:"+agent, caps)
	exit := now()
	p.mu.Lock()
	k := p.base + int64(len(p.ingestedAt))
	p.ingestedAt = append(p.ingestedAt, exit)
	p.mu.Unlock()
	p.ingested.Add(int64(n))
	newest := math.Inf(-1)
	for _, c := range caps {
		newest = math.Max(newest, c.TimeSec)
	}
	for {
		old := p.latest.Load()
		if newest <= math.Float64frombits(old) || p.latest.CompareAndSwap(old, math.Float64bits(newest)) {
			break
		}
	}
	if traced {
		id := p.rec.add(span{Name: spanIngest, Key: k, N: len(caps)}, entry, exit)
		if k%shadowEvery == 0 {
			p.shadowIngest(id, k, caps)
		}
	}
	return n
}

// shadowIngest times obs.Store.IngestFrames on the batch's decodable
// frames, into a store of its own.
func (p *pipeline) shadowIngest(parent uint64, k int64, caps []sniffer.Capture) {
	batch := make([]obs.FrameCapture, 0, len(caps))
	for _, c := range caps {
		if c.Frame != nil {
			batch = append(batch, obs.FrameCapture{TimeSec: c.TimeSec, Frame: c.Frame, FromAP: c.FromAP})
		}
	}
	p.mu.Lock()
	store := p.shadow
	p.mu.Unlock()
	before := store.Len()
	t0 := now()
	store.IngestFrames(batch)
	t1 := now()
	p.rec.add(span{Parent: parent, Name: spanObsIngest, Key: k, N: len(caps), Records: store.Len() - before}, t0, t1)
}

// resetStores drops every observation, in the engine and in the shadow
// store alike.
func (p *pipeline) resetStores() {
	p.eng.ResetObservations()
	if p.rec != nil {
		p.mu.Lock()
		p.shadow = obs.NewStore()
		p.mu.Unlock()
	}
}

// dropLogs releases the per-batch send and ingest records once the
// workload has read them and sends no more, so they do not count as the
// system's heap.
func (p *pipeline) dropLogs() {
	p.sendAt = nil
	p.mu.Lock()
	p.ingestedAt = nil
	p.mu.Unlock()
}

// latestSim is the newest capture time the engine has ingested.
func (p *pipeline) latestSim() float64 { return math.Float64frombits(p.latest.Load()) }

// preload streams batches through the wire and waits until every one is
// acknowledged, that is, ingested.
func (p *pipeline) preload(ctx context.Context, batches [][]sniffer.Capture) error {
	for _, b := range batches {
		if err := p.send(ctx, b); err != nil {
			return err
		}
	}
	return p.flush(ctx)
}

func (p *pipeline) flush(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := p.client.Flush(ctx); err != nil {
		return fmt.Errorf("capwire flush: %w", err)
	}
	return nil
}

// frameRec is one served map frame.
type frameRec struct {
	start, end stamp
	devices    int
	body       []byte // valid until the next frame
}

// frame serves one map frame the way the live map does: Snapshot at sim
// time t, PublishFrame, then GET /api/state with the body read to the
// end. Traced, it records the three calls and shadows Store.Devices and,
// for 1 in 16 located devices, window assembly and M-Loc.
func (p *pipeline) frame(t float64) (frameRec, error) {
	k := p.base + p.frames
	p.frames++
	traced := p.rec.active()
	t0 := now()
	snap := p.eng.Snapshot(t)
	t1 := now()
	p.state.PublishFrame(snap, nil)
	t2 := now()
	body, err := p.get()
	t3 := now()
	fr := frameRec{start: t0, end: t3, devices: len(snap), body: body}
	if err != nil {
		return fr, err
	}
	if traced {
		id := p.rec.add(span{Name: spanFrame, Key: k, N: len(snap)}, t0, t3)
		p.rec.add(span{Parent: id, Name: spanSnapshot, Key: k, N: len(snap)}, t0, t1)
		p.rec.add(span{Parent: id, Name: spanPublish, Key: k, N: len(snap)}, t1, t2)
		p.rec.add(span{Parent: id, Name: spanServe, Key: k, N: len(snap), Bytes: len(body)}, t2, t3)
		p.shadowFrame(id, k, t, snap)
	}
	return fr, nil
}

func (p *pipeline) shadowFrame(parent uint64, k int64, t float64, snap map[dot11.MAC]core.Estimate) {
	store := p.eng.Store()
	t0 := now()
	devs := store.Devices()
	t1 := now()
	p.rec.add(span{Parent: parent, Name: spanDevices, Key: k, N: len(devs)}, t0, t1)
	var sample []dot11.MAC
	for i, d := range devs {
		if _, ok := snap[d]; ok && i%shadowEvery == 0 {
			sample = append(sample, d)
		}
	}
	if len(sample) == 0 {
		return
	}
	gammas := p.windows(spanWindow, parent, k, sample, func(int) (float64, float64) { return t - windowSec/2, t + windowSec/2 })
	know := p.eng.Knowledge()
	n := 0
	t2 := now()
	for _, g := range gammas {
		if len(g) > 0 {
			_, _ = core.MLocalizer{}.Locate(know, g) // a failed fix costs the same work
			n++
		}
	}
	p.rec.add(span{Parent: parent, Name: spanLocate, Key: k, N: n}, t2, now())
}

// windows times AppendAPSetWindow over len(devs) queries (query i asks
// devs[i] for window(i)) and records one span of the given name carrying
// Σ|Γ|, the non-empty count and the total |ΔΓ| between consecutive
// queries. It returns every query's Γ, empty ones included.
func (p *pipeline) windows(name spanName, parent uint64, k int64, devs []dot11.MAC, window func(i int) (float64, float64)) [][]dot11.MAC {
	store := p.eng.Store()
	flat := make([]dot11.MAC, 0, 16*len(devs))
	ends := make([]int, len(devs))
	t0 := now()
	for i, d := range devs {
		from, to := window(i)
		flat = store.AppendAPSetWindow(flat, d, from, to)
		ends[i] = len(flat)
	}
	t1 := now()
	gammas := make([][]dot11.MAC, len(devs))
	churn, nonEmpty, lo := 0, 0, 0
	for i, hi := range ends {
		gammas[i] = flat[lo:hi:hi]
		if i > 0 {
			churn += symDiff(gammas[i-1], gammas[i])
		}
		if hi > lo {
			nonEmpty++
		}
		lo = hi
	}
	p.rec.add(span{Parent: parent, Name: name, Key: k, N: len(devs), Churn: churn, Gamma: len(flat), NonEmpty: nonEmpty}, t0, t1)
	return gammas
}

// symDiff counts the MACs in exactly one of two ascending sets.
func symDiff(a, b []dot11.MAC) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := bytes.Compare(a[i][:], b[j][:]); {
		case c == 0:
			i++
			j++
		case c < 0:
			i++
			n++
		default:
			j++
			n++
		}
	}
	return n + len(a) - i + len(b) - j
}

// get fetches /api/state and reads the whole body.
func (p *pipeline) get() ([]byte, error) {
	resp, err := p.hc.Get(p.url)
	if err != nil {
		return nil, err
	}
	p.body.Reset()
	_, err = p.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("GET /api/state body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/state: %s", resp.Status)
	}
	return p.body.Bytes(), nil
}

// trackSteps is how many windows Track evaluates over [from, to].
func trackSteps(from, to float64) int { return int((to-from)/trackStep) + 1 }

// track runs engine.Track at the benchmark's step. Traced, it records
// the call and, on 1 in 16 calls, shadows the trajectory: every step's
// window assembly, then core.MLocTracked, with a region tracker of its
// own, on each step whose Γ is non-empty and differs from the step
// before. Those are the steps the engine computes; a repeated Γ is a
// Γ-cache hit.
func (p *pipeline) track(dev dot11.MAC, from, to float64) ([]core.TrackPoint, time.Duration, error) {
	k := p.base + p.tracks
	p.tracks++
	traced := p.rec.active()
	t0 := now()
	pts, err := p.eng.Track(dev, from, to, trackStep)
	t1 := now()
	if err != nil {
		return nil, 0, err
	}
	if !traced {
		return pts, t1.sub(t0), nil
	}
	steps := trackSteps(from, to)
	id := p.rec.add(span{Name: spanTrack, Key: k, N: steps}, t0, t1)
	if k%shadowEvery != 0 {
		return pts, t1.sub(t0), nil
	}
	devs := make([]dot11.MAC, steps)
	for i := range devs {
		devs[i] = dev
	}
	gammas := p.windows(spanWindowTrack, id, k, devs, func(i int) (float64, float64) {
		ts := from + float64(i)*trackStep
		return ts - windowSec/2, ts + windowSec/2
	})
	know := p.eng.Knowledge()
	var rt core.RegionTracker
	n, incremental := 0, 0
	t2 := now()
	for i, g := range gammas {
		if len(g) == 0 || (i > 0 && slices.Equal(g, gammas[i-1])) {
			continue
		}
		_, _ = core.MLocTracked(know, g, &rt)
		n++
		if rt.LastPath() == core.RegionPathIncremental {
			incremental++
		}
	}
	p.rec.add(span{Parent: id, Name: spanTracked, Key: k, N: n, Incremental: incremental}, t2, now())
	return pts, t1.sub(t0), nil
}

// books checks the capwire exactly-once invariants once the client has
// flushed: the server's own accounting balances, every frame sent was
// either ingested or quarantined, and the engine agrees with the wire.
func (p *pipeline) books() error {
	t := p.srv.Totals()
	var errs []error
	if !t.AccountingOk {
		errs = append(errs, errors.New("server accounting does not balance"))
	}
	if got := t.FramesIngested + t.FramesQuarantined; got != uint64(p.sentFrames) {
		errs = append(errs, fmt.Errorf("ingested %d + quarantined %d != sent %d", t.FramesIngested, t.FramesQuarantined, p.sentFrames))
	}
	if t.FramesIngested != uint64(p.ingested.Load()) {
		errs = append(errs, fmt.Errorf("server ingested %d, engine accepted %d", t.FramesIngested, p.ingested.Load()))
	}
	if q := p.eng.Stats().Quarantined; q != t.FramesQuarantined {
		errs = append(errs, fmt.Errorf("engine quarantined %d, server counted %d", q, t.FramesQuarantined))
	}
	if t.ProtocolErrors != 0 {
		errs = append(errs, fmt.Errorf("%d protocol errors", t.ProtocolErrors))
	}
	return errors.Join(errs...)
}
