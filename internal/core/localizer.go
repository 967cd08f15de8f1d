package core

import (
	"fmt"

	"repro/internal/dot11"
	"repro/internal/wardrive"
)

// Localizer is a localization algorithm as the engine consumes it: a named
// mapping from the attacker's knowledge and an observed AP set Γ to a
// location estimate. All five algorithms of the paper's evaluation —
// M-Loc, AP-Rad, AP-Loc and the Centroid / Closest-AP baselines — are
// Localizers, so every front-end selects them uniformly.
type Localizer interface {
	// Name identifies the algorithm ("m-loc", "ap-rad", ...).
	Name() string
	// Locate estimates the device position from Γ.
	Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error)
}

// KnowledgeTrainer is implemented by Localizers that derive their working
// knowledge base from observations rather than taking it as given (AP-Rad
// estimates radii, AP-Loc additionally estimates positions). The engine
// calls Train as observations accumulate and swaps the returned Knowledge
// in as the active base for Locate.
type KnowledgeTrainer interface {
	// Train builds the working knowledge from the training base (AP
	// positions for AP-Rad; ignored by AP-Loc, which brings its own
	// wardriving tuples) and the observed per-device AP sets.
	Train(base Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, error)
}

// TrainDiag is the provenance of one Train run — the shape and cost of
// the radius-estimation LP — surfaced so the engine can attribute every
// estimate to the exact training run that produced its knowledge.
type TrainDiag struct {
	// Constraints is the LP's pairwise-constraint count.
	Constraints int
	// LPIterations is the simplex pivot count of the solve.
	LPIterations int
	// LowerBoundViolations counts co-observation constraints the optimum
	// violated (repaired upward — Theorem 3's safe direction).
	LowerBoundViolations int
	// Objective is Σ rᵢ at the optimum.
	Objective float64
}

// DiagnosedTrainer is a KnowledgeTrainer that also reports how training
// went. The engine prefers it over plain Train when recording estimate
// provenance.
type DiagnosedTrainer interface {
	KnowledgeTrainer
	// TrainDiagnosed is Train with the run's diagnostics alongside.
	TrainDiagnosed(base Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, TrainDiag, error)
}

// LocalizerFunc adapts a bare algorithm func (MLoc, CentroidBaseline,
// ClosestAPBaseline) to the Localizer interface.
type LocalizerFunc struct {
	// Method is the reported Name.
	Method string
	// Func is the wrapped algorithm.
	Func func(Knowledge, []dot11.MAC) (Estimate, error)
}

// Name implements Localizer.
func (l LocalizerFunc) Name() string { return l.Method }

// Locate implements Localizer.
func (l LocalizerFunc) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	return l.Func(k, gamma)
}

// MLocalizer is the paper's M-Loc algorithm as a Localizer: knowledge
// (positions and radii) is taken as given.
type MLocalizer struct{}

// Name implements Localizer.
func (MLocalizer) Name() string { return "m-loc" }

// Locate implements Localizer.
func (MLocalizer) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	return MLoc(k, gamma)
}

// CentroidLocalizer is the prior range-free Centroid baseline.
type CentroidLocalizer struct{}

// Name implements Localizer.
func (CentroidLocalizer) Name() string { return "centroid" }

// Locate implements Localizer.
func (CentroidLocalizer) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	return CentroidBaseline(k, gamma)
}

// ClosestAPLocalizer is the Closest-AP baseline.
type ClosestAPLocalizer struct{}

// Name implements Localizer.
func (ClosestAPLocalizer) Name() string { return "closest-ap" }

// Locate implements Localizer.
func (ClosestAPLocalizer) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	return ClosestAPBaseline(k, gamma)
}

// defaultMaxInflate bounds MLocInflated's radius inflation for the trained
// algorithms (AP-Rad / AP-Loc), matching APRad's historical behaviour.
const defaultMaxInflate = 4

// APRadLocalizer is the paper's AP-Rad algorithm split into its two
// phases: Train estimates AP radii from co-observation constraints (the
// LP of EstimateRadii) and Locate runs M-Loc over the trained knowledge,
// inflating radii when estimation left a device's discs jointly empty.
type APRadLocalizer struct {
	// Cfg tunes the radius-estimation LP.
	Cfg APRadConfig
	// MaxInflate bounds the M-Loc radius inflation (default 4).
	MaxInflate float64
}

// Name implements Localizer.
func (APRadLocalizer) Name() string { return "ap-rad" }

// Locate implements Localizer.
func (l APRadLocalizer) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	est, _, err := MLocInflated(k, gamma, maxInflate(l.MaxInflate))
	if err != nil {
		return Estimate{}, err
	}
	est.Method = "ap-rad"
	return est, nil
}

// Train implements KnowledgeTrainer.
func (l APRadLocalizer) Train(base Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, error) {
	trained, _, err := l.TrainDiagnosed(base, deviceSets)
	return trained, err
}

// TrainDiagnosed implements DiagnosedTrainer.
func (l APRadLocalizer) TrainDiagnosed(base Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, TrainDiag, error) {
	trained, diag, err := EstimateRadii(base, deviceSets, l.Cfg)
	return trained, trainDiagFromAPRad(diag), err
}

// APLocLocalizer is the paper's AP-Loc algorithm: nothing is known, so
// Train first estimates AP positions from wardriving tuples (memoized —
// the training set does not change between refreshes) and then estimates
// radii with AP-Rad's LP over the observed device sets. Use it by
// pointer: training state is cached on the receiver.
type APLocLocalizer struct {
	// Tuples is the wardriving training set (used when Trained is zero).
	Tuples []wardrive.Tuple
	// Trained overrides position training with an already-trained base.
	Trained Knowledge
	// Cfg tunes position training and the radius LP.
	Cfg APLocConfig
	// MaxInflate bounds the M-Loc radius inflation (default 4).
	MaxInflate float64
}

// Name implements Localizer.
func (*APLocLocalizer) Name() string { return "ap-loc" }

// Locate implements Localizer.
func (l *APLocLocalizer) Locate(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	est, _, err := MLocInflated(k, gamma, maxInflate(l.MaxInflate))
	if err != nil {
		return Estimate{}, err
	}
	est.Method = "ap-loc"
	return est, nil
}

// Train implements KnowledgeTrainer. The base argument is ignored: AP-Loc
// assumes no external knowledge.
func (l *APLocLocalizer) Train(base Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, error) {
	trained, _, err := l.TrainDiagnosed(base, deviceSets)
	return trained, err
}

// TrainDiagnosed implements DiagnosedTrainer. Position training is
// memoized on the receiver; the diagnostics describe the radius LP.
func (l *APLocLocalizer) TrainDiagnosed(_ Knowledge, deviceSets map[dot11.MAC][]dot11.MAC) (Knowledge, TrainDiag, error) {
	if l.Trained.IsZero() {
		trained, err := EstimateAPLocations(l.Tuples, l.Cfg)
		if err != nil {
			return Knowledge{}, TrainDiag{}, fmt.Errorf("ap-loc training: %w", err)
		}
		l.Trained = trained
	}
	trained, diag, err := EstimateRadii(l.Trained, deviceSets, l.Cfg.Rad)
	return trained, trainDiagFromAPRad(diag), err
}

// trainDiagFromAPRad lifts the AP-Rad LP diagnostics into the shared
// training-provenance shape.
func trainDiagFromAPRad(d APRadDiagnostics) TrainDiag {
	return TrainDiag{
		Constraints:          d.Constraints,
		LPIterations:         d.LPIterations,
		LowerBoundViolations: d.LowerBoundViolations,
		Objective:            d.Objective,
	}
}

func maxInflate(v float64) float64 {
	if v <= 0 {
		return defaultMaxInflate
	}
	return v
}
