package scenario

import (
	"rbcflow/internal/network"
	"rbcflow/internal/surrogate"
)

// Simulation tiers. The empty string and TierBIE both select the full
// boundary-integral pipeline; TierSurrogate runs only the reduced-order
// network solver; TierMixed sweeps the whole grid through the surrogate,
// ranks the points by the campaign objective, and promotes the top K through
// the BIE tier.
const (
	TierBIE       = "bie"
	TierSurrogate = "surrogate"
	TierMixed     = "mixed"
)

// ValidTier reports whether name is a recognized tier selector.
func ValidTier(name string) bool {
	switch name {
	case "", TierBIE, TierSurrogate, TierMixed:
		return true
	}
	return false
}

// RunSurrogate solves a network-family scenario on the reduced-order tier:
// the scenario's graph builder supplies the network (at the same defaults the
// BIE tier would discretize), and the surrogate's damped fixed point couples
// flow, plasma-skimming haematocrit, and Fåhræus–Lindqvist effective
// viscosity. cal may be nil (uncorrected velocities).
func RunSurrogate(name string, p Params, cal *surrogate.Calibration) (*network.Network, *surrogate.Result, error) {
	p.Defaults()
	net, err := NetworkGraph(name, p)
	if err != nil {
		return nil, nil, err
	}
	res, err := surrogate.Solve(net, surrogate.Params{
		Rheology:    surrogate.Rheology{MuPlasma: p.Mu},
		InletHct:    p.Hct,
		Gamma:       p.Gamma,
		Calibration: cal,
	})
	if err != nil {
		return nil, nil, err
	}
	return net, res, nil
}

// SurrogateRecord is the reduced-order tier's per-run manifest summary.
type SurrogateRecord struct {
	Segments  int     `json:"segments"`
	Iters     int     `json:"iters"`
	Converged bool    `json:"converged"`
	Residual  float64 `json:"residual"`
	// FlowImbalance / RBCImbalance are the worst mass and RBC-flux
	// conservation violations at the converged point.
	FlowImbalance float64 `json:"flow_imbalance"`
	RBCImbalance  float64 `json:"rbc_imbalance"`
	// Objective is the run's score under the campaign objective.
	Objective float64 `json:"objective"`
	// Calibrated reports whether a calibration artifact corrected the
	// velocities entering the objective.
	Calibrated bool `json:"calibrated,omitempty"`
}

// RankedRun is one entry of the promotion ranking.
type RankedRun struct {
	ID        string  `json:"id"`
	Objective float64 `json:"objective"`
}

// Promotion records the mixed-tier decision: the full surrogate ranking, the
// IDs promoted to the BIE tier, and the measured per-point cost of each tier.
// The *_seconds fields are wall-clock measurements — like telemetry_seconds
// they vary run to run and are NOT part of the deterministic manifest core.
type Promotion struct {
	Objective string      `json:"objective"`
	TopK      int         `json:"top_k"`
	Ranking   []RankedRun `json:"ranking"`
	Promoted  []string    `json:"promoted"`

	SurrogateSecondsPerPoint float64 `json:"surrogate_seconds_per_point"`
	BIESecondsPerPoint       float64 `json:"bie_seconds_per_point,omitempty"`
	// SpeedupPerPoint = BIESecondsPerPoint / SurrogateSecondsPerPoint: how
	// many surrogate sweep points one BIE point buys.
	SpeedupPerPoint float64 `json:"speedup_per_point,omitempty"`
}
