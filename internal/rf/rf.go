// Package rf models the radio-frequency physics behind the digital
// Marauder's map receiver chain: dB arithmetic, free-space and log-distance
// propagation, cascaded noise figures (Friis), receiver sensitivity and the
// link-budget coverage bound of the paper's Theorem 1.
//
// Conventions: power in dBm, gains and losses in dB, antenna gains in dBi,
// frequencies in Hz, distances in metres.
package rf

import (
	"errors"
	"fmt"
	"math"
)

// SpeedOfLight is c in metres per second.
const SpeedOfLight = 299792458.0

// ThermalNoiseDBmPerHz is the thermal noise power density at the receiver
// input impedance: −174 dBm/Hz at room temperature (the paper's constant).
const ThermalNoiseDBmPerHz = -174.0

// Wavelength returns the free-space wavelength λ = c/f in metres.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// DBToLinear converts a dB ratio to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear ratio to dB.
func LinearToDB(lin float64) float64 { return 10 * math.Log10(lin) }

// FreeSpacePathLossDB returns the Friis free-space propagation loss
// L = 20·log10(4πd/λ) in dB for distance d metres at the given frequency.
func FreeSpacePathLossDB(distM, freqHz float64) float64 {
	if distM <= 0 {
		return 0
	}
	return 20 * math.Log10(4*math.Pi*distM/Wavelength(freqHz))
}

// PathLoss models propagation loss as a function of distance and frequency.
type PathLoss interface {
	// LossDB returns the propagation loss in dB at distance distM metres.
	LossDB(distM, freqHz float64) float64
}

// FreeSpace is the spherical worst-case propagation model the paper's
// analysis assumes (Theorem 1): loss grows 20 dB per decade.
type FreeSpace struct{}

var _ PathLoss = FreeSpace{}

// LossDB implements PathLoss.
func (FreeSpace) LossDB(distM, freqHz float64) float64 {
	return FreeSpacePathLossDB(distM, freqHz)
}

// LogDistance is the log-distance path-loss model commonly used for urban
// 802.11 propagation: free-space loss up to RefDistM, then Exponent·10 dB
// per decade. Exponent 2 reproduces free space; 2.7–4 models obstructed
// urban areas (the "small hills" effect of the paper's Fig 12).
type LogDistance struct {
	// Exponent is the path-loss exponent n.
	Exponent float64
	// RefDistM is the reference distance d0 in metres (typically 1 m).
	RefDistM float64
}

var _ PathLoss = LogDistance{}

// LossDB implements PathLoss.
func (l LogDistance) LossDB(distM, freqHz float64) float64 {
	ref := l.RefDistM
	if ref <= 0 {
		ref = 1
	}
	if distM < ref {
		distM = ref
	}
	return FreeSpacePathLossDB(ref, freqHz) +
		10*l.Exponent*math.Log10(distM/ref)
}

// Component is one block of a receiver chain: an amplifier, connector,
// splitter or cable, characterized by its gain (negative for losses) and
// noise figure.
type Component struct {
	Name          string  `json:"name"`
	GainDB        float64 `json:"gainDb"`
	NoiseFigureDB float64 `json:"noiseFigureDb"`
}

// NIC is the terminating wireless network interface card of a chain.
type NIC struct {
	Name string `json:"name"`
	// NoiseFigureDB is the card's noise figure (typically 4–6 dB).
	NoiseFigureDB float64 `json:"noiseFigureDb"`
	// SNRMinDB is the minimum SNR for acceptable demodulation at the
	// monitored rate.
	SNRMinDB float64 `json:"snrMinDb"`
	// BandwidthHz is the baseband filter bandwidth B (22 MHz for 802.11b/g).
	BandwidthHz float64 `json:"bandwidthHz"`
}

// Chain is a receive chain: an antenna followed by passive/active blocks
// terminated by a NIC. This mirrors the paper's chain: high-gain antenna →
// LNA → splitter → wireless cards.
type Chain struct {
	Name string `json:"name"`
	// AntennaGainDBi is the receive antenna gain G_rx.
	AntennaGainDBi float64 `json:"antennaGainDbi"`
	// Blocks are the cascaded components between antenna and NIC, in order.
	Blocks []Component `json:"blocks"`
	// Card is the terminating NIC.
	Card NIC `json:"card"`
}

// ErrNoGain is returned when a cascade computation meets a block with
// non-positive linear gain.
var ErrNoGain = errors.New("rf: component with non-positive linear gain")

// NoiseFigureDB returns the noise figure of the cascaded chain (blocks then
// NIC) using the Friis formula
//
//	F = F₁ + (F₂−1)/G₁ + (F₃−1)/(G₁G₂) + …
//
// With a high-gain LNA first, the chain's noise figure collapses to the
// LNA's — the effect the paper exploits.
func (c Chain) NoiseFigureDB() float64 {
	f := 0.0
	gProd := 1.0
	first := true
	add := func(nfDB, gainDB float64) {
		fi := DBToLinear(nfDB)
		if first {
			f = fi
			first = false
		} else {
			f += (fi - 1) / gProd
		}
		gProd *= DBToLinear(gainDB)
	}
	for _, b := range c.Blocks {
		add(b.NoiseFigureDB, b.GainDB)
	}
	add(c.Card.NoiseFigureDB, 0)
	if first {
		return 0
	}
	return LinearToDB(f)
}

// GainDB returns the total block gain of the chain (excluding antenna).
func (c Chain) GainDB() float64 {
	g := 0.0
	for _, b := range c.Blocks {
		g += b.GainDB
	}
	return g
}

// SensitivityDBm returns the minimum input signal power the chain can
// demodulate: P_min = −174 + NF + SNR_min + 10·log10(B)  (paper Eq. 11/16).
func (c Chain) SensitivityDBm() float64 {
	return ThermalNoiseDBmPerHz + c.NoiseFigureDB() + c.Card.SNRMinDB +
		10*math.Log10(c.Card.BandwidthHz)
}

// Transmitter describes the radio parameters of a signal source (an AP or a
// probing mobile device).
type Transmitter struct {
	// PowerDBm is the transmit power P_tx.
	PowerDBm float64 `json:"powerDbm"`
	// AntennaGainDBi is the transmit antenna gain G_tx.
	AntennaGainDBi float64 `json:"antennaGainDbi"`
	// FreqHz is the carrier frequency.
	FreqHz float64 `json:"freqHz"`
}

// EIRPDBm returns the effective isotropic radiated power.
func (t Transmitter) EIRPDBm() float64 { return t.PowerDBm + t.AntennaGainDBi }

// SNRDB returns the signal-to-noise ratio at the demodulator for the given
// distance and propagation model. Because amplification boosts signal and
// noise alike, SNR uses the antenna-referred signal power against the
// chain's noise floor (−174 + NF + 10·log B).
func SNRDB(tx Transmitter, rx Chain, distM float64, model PathLoss) float64 {
	sig := tx.EIRPDBm() + rx.AntennaGainDBi - model.LossDB(distM, tx.FreqHz)
	noise := ThermalNoiseDBmPerHz + rx.NoiseFigureDB() + 10*math.Log10(rx.Card.BandwidthHz)
	return sig - noise
}

// Decodable reports whether a frame transmitted from distM away can be
// demodulated by the chain under the model — the receive condition
// P_rx > P_rx,min of Theorem 1's proof.
func Decodable(tx Transmitter, rx Chain, distM float64, model PathLoss) bool {
	return SNRDB(tx, rx, distM, model) > rx.Card.SNRMinDB
}

// CoverageRadius solves the paper's Theorem 1 for the maximum free-space
// distance D at which the chain can still demodulate the transmitter:
//
//	20·log10(D) < G_rx − NF − SNR_min + C
//	C = P_tx + G_tx − 20·log10(4π/λ) − 10·log10(B) + 174
//
// where NF is the chain's cascaded noise figure (≈ the LNA's when a
// high-gain LNA leads the chain).
func CoverageRadius(tx Transmitter, rx Chain) float64 {
	c := tx.PowerDBm + tx.AntennaGainDBi -
		20*math.Log10(4*math.Pi/Wavelength(tx.FreqHz)) -
		10*math.Log10(rx.Card.BandwidthHz) - ThermalNoiseDBmPerHz
	rhs := rx.AntennaGainDBi - rx.NoiseFigureDB() - rx.Card.SNRMinDB + c
	return math.Pow(10, rhs/20)
}

// CoverageRadiusModel generalizes CoverageRadius to any monotone path-loss
// model by bisection. It returns 0 when even point-blank range is not
// decodable and caps the search at maxDistM.
func CoverageRadiusModel(tx Transmitter, rx Chain, model PathLoss, maxDistM float64) float64 {
	if !Decodable(tx, rx, 1, model) {
		return 0
	}
	lo, hi := 1.0, maxDistM
	if Decodable(tx, rx, hi, model) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if Decodable(tx, rx, mid, model) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// SplitterLossDB returns the ideal power-division loss of an n-way signal
// splitter, 10·log10(n) dB.
func SplitterLossDB(ways int) (float64, error) {
	if ways < 1 {
		return 0, fmt.Errorf("rf: invalid splitter ways %d", ways)
	}
	return 10 * math.Log10(float64(ways)), nil
}
