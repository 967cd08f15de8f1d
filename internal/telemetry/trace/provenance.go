package trace

// Provenance explains one localization estimate end to end: what was
// observed, what algorithm and knowledge produced the estimate, how the
// resulting intersection region compares against the paper's Theorem 2
// prediction, and where the wall time went. It is the payload behind the
// map server's /api/explain and rides on every sampled fix trace.
type Provenance struct {
	// TraceID ties the record to its trace (and to log lines via LogKey).
	TraceID string `json:"traceId"`
	// Device is the localized device MAC.
	Device string `json:"device"`
	// Algorithm is the Localizer that answered ("m-loc", "ap-rad", ...).
	Algorithm string `json:"algorithm"`
	// Gamma is the communicable AP set Γ observed in the window, in
	// canonical ascending-MAC order.
	Gamma []string `json:"gamma"`
	// K is |Γ| as used by the estimate — the k of Theorem 2.
	K int `json:"k"`
	// WindowStart / WindowEnd bound the observation window (seconds).
	WindowStart float64 `json:"windowStart"`
	// WindowEnd is the window's exclusive upper bound.
	WindowEnd float64 `json:"windowEnd"`
	// CacheHit reports whether the Γ cache answered (true) or the
	// algorithm ran fresh (false).
	CacheHit bool `json:"cacheHit"`
	// Located reports whether localization succeeded; Err holds the
	// failure otherwise.
	Located bool `json:"located"`
	// PosX / PosY are the estimate in the attack's local plane (metres).
	PosX float64 `json:"posX"`
	// PosY is the estimate's y coordinate.
	PosY float64 `json:"posY"`
	// VertexCount is |Δ|, the disc-intersection vertex count (M-Loc
	// family; 0 for the baselines).
	VertexCount int `json:"vertexCount"`
	// IntersectedAreaM2 is the exact area of Γ's disc-intersection region
	// — the paper's CA metric for this very estimate.
	IntersectedAreaM2 float64 `json:"intersectedAreaM2"`
	// Theorem2AreaM2 is Theorem 2's predicted E[CA] for this k at
	// MeanRadiusM — the analytical yardstick the measured area reads
	// against.
	Theorem2AreaM2 float64 `json:"theorem2AreaM2"`
	// MeanRadiusM is the mean maximum transmission distance of Γ's known
	// APs, the r plugged into Theorem 2.
	MeanRadiusM float64 `json:"meanRadiusM"`
	// KnowledgeGen counts knowledge-base swaps at estimate time, so an
	// estimate is attributable to the exact training run it used.
	KnowledgeGen uint64 `json:"knowledgeGen"`
	// Training describes the knowledge generation's training run (AP-Rad
	// / AP-Loc); nil for untrained algorithms.
	Training *TrainingInfo `json:"training,omitempty"`
	// StagesMs is wall time per fix stage, in milliseconds, keyed by the
	// marauder_stage_seconds label: window_assembly, localize, then
	// trace_record. The same clock reads feed those
	// histograms, so StagesMs[s]/1e3 is exactly what stage s observed.
	StagesMs map[string]float64 `json:"stagesMs"`
	// TotalMs is the whole fix's wall time, in milliseconds — the
	// marauder_fix_seconds observation.
	TotalMs float64 `json:"totalMs"`
	// Err is the localization failure, if any.
	Err string `json:"err,omitempty"`
}

// TrainingInfo is the provenance of one knowledge re-training run — the
// AP-Rad LP's shape and cost, recorded once per RefreshKnowledge and
// referenced by every estimate of that knowledge generation.
type TrainingInfo struct {
	// Algorithm is the trainer ("ap-rad", "ap-loc").
	Algorithm string `json:"algorithm"`
	// Gen is the knowledge generation the run produced.
	Gen uint64 `json:"gen"`
	// Constraints is the LP's pairwise-constraint count.
	Constraints int `json:"constraints"`
	// LPIterations is the simplex pivot count the solve took.
	LPIterations int `json:"lpIterations"`
	// LowerBoundViolations counts co-observed pairs whose evidence the
	// optimum violated (repaired upward per Theorem 3).
	LowerBoundViolations int `json:"lowerBoundViolations"`
	// Objective is Σ rᵢ at the LP optimum.
	Objective float64 `json:"objective"`
	// DurationMs is the training run's wall time in milliseconds.
	DurationMs float64 `json:"durationMs"`
}
