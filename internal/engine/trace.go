package engine

import (
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/telemetry/trace"
	"repro/internal/theory"
)

// theorem2Unit memoizes Theorem 2's expected intersected area at unit
// radius by k: E[CA](k, r) scales as r² (the closed form is 8πr²·∫…), so
// one adaptive quadrature per distinct k serves every radius the
// provenance path ever asks about.
var theorem2Unit sync.Map // int -> float64

// theorem2Area evaluates Theorem 2's E[CA] for k communicable APs of mean
// maximum transmission distance meanR. Returns 0 when the theorem does not
// apply (k < 1, no usable radius) or the quadrature fails.
func theorem2Area(k int, meanR float64) float64 {
	if k < 1 || meanR <= 0 {
		return 0
	}
	if v, ok := theorem2Unit.Load(k); ok {
		return v.(float64) * meanR * meanR
	}
	ca, err := theory.IntersectedArea(k, 1)
	if err != nil {
		return 0
	}
	theorem2Unit.Store(k, ca)
	return ca * meanR * meanR
}

// meanRange returns the mean maximum transmission distance of Γ's APs that
// are present in the knowledge base with a usable radius (0 when none are).
func meanRange(k core.Knowledge, gamma []dot11.MAC) float64 {
	sum, n := 0.0, 0
	for _, m := range gamma {
		if in, ok := k.Get(m); ok && in.MaxRange > 0 {
			sum += in.MaxRange
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// provenance assembles the provenance record of one traced fix. The
// expensive fields — the exact intersected area and the Theorem 2
// quadrature — are computed only here, i.e. only for fixes the sampler
// selected; unsampled and untraced fixes never pay for them. v is the view
// the estimate was computed from, so a concurrent SetKnowledge cannot
// misattribute the area, the generation or the training record.
func (e *Engine) provenance(v *view, dev dot11.MAC, gamma []dot11.MAC,
	est core.Estimate, err error, hit bool, start, end float64) *trace.Provenance {
	p := &trace.Provenance{
		Device:       dev.String(),
		Algorithm:    e.loc.Name(),
		Gamma:        macStrings(gamma),
		K:            est.K,
		WindowStart:  start,
		WindowEnd:    end,
		CacheHit:     hit,
		KnowledgeGen: v.gen,
		Training:     v.training,
	}
	if p.K == 0 {
		p.K = len(gamma)
	}
	if err != nil {
		p.Err = err.Error()
	} else {
		p.Located = true
		p.PosX, p.PosY = est.Pos.X, est.Pos.Y
		p.VertexCount = len(est.Vertices)
	}
	if len(gamma) > 0 {
		p.MeanRadiusM = meanRange(v.know, gamma)
		p.IntersectedAreaM2 = core.RegionArea(v.know, gamma)
		p.Theorem2AreaM2 = theorem2Area(p.K, p.MeanRadiusM)
	}
	return p
}

// fileFix finishes a traced fix from its fixSpan: one span per stage and
// the provenance's StagesMs and TotalMs, all read from the timestamps the
// stage histograms observed. The window_assembly span carries the
// records the window matched, |Γ| and whether the query re-sorted the
// device log; the middle stage carries the cache-hit flag.
func fileFix(tr *trace.Trace, sp *fixSpan, p *trace.Provenance, scanned int, resorted bool) {
	spans := make([]trace.Span, numFixStages)
	p.StagesMs = make(map[string]float64, numFixStages)
	for i := range numFixStages {
		from, to := sp.bounds(i)
		name := stageNames[i]
		spans[i] = trace.Span{
			Name:    name,
			StartUS: from.Sub(sp.start).Microseconds(),
			DurUS:   to.Sub(from).Microseconds(),
		}
		p.StagesMs[name] = to.Sub(from).Seconds() * 1e3
	}
	window := map[string]any{"records": scanned, "gamma": len(p.Gamma)}
	if resorted {
		window["resorted"] = true
	}
	spans[0].Attrs = window
	spans[1].Attrs = map[string]any{"cache_hit": p.CacheHit}
	total := sp.total()
	p.TotalMs = total.Seconds() * 1e3
	tr.Finish(sp.start, total, p, spans...)
	slog.Debug("localization traced",
		"component", "engine", trace.LogKey, tr.ID(),
		"device", p.Device, "algo", p.Algorithm, "k", p.K,
		"cache_hit", p.CacheHit, "located", p.Located)
}

func macStrings(ms []dot11.MAC) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}
