// Package fl implements the federated-learning middleware reproduced from
// the Aergia paper: a central federator and clients exchanging messages over
// a comm.Env (virtual-time simulation or a real transport), with pluggable
// aggregation strategies — FedAvg, FedProx, FedNova, TiFL, deadline-based
// FL, and Aergia itself (online profiling, similarity-aware scheduling,
// model freezing and offloading, and model recombination at aggregation).
package fl

import (
	"time"

	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/profile"
	"aergia/internal/sched"
)

// ClientInfo is the federator's static knowledge about a client.
type ClientInfo struct {
	ID comm.NodeID
	// Samples is the local dataset size (n_k).
	Samples int
	// Speed is the client's CPU fraction, known to selection policies that
	// rely on offline profiling (TiFL). Strategies that do not profile
	// offline must ignore it.
	Speed float64
}

// Update is one client's trained-model contribution to a round.
type Update struct {
	Client comm.NodeID
	Round  int
	// NumSamples is n_k, the client's dataset size.
	NumSamples int
	// Steps is tau_k: the number of local updates the client performed.
	Steps int
	// Weights is the full model snapshot (for offloaded clients, the
	// federator recombines this with the strong client's feature section
	// before aggregation).
	Weights nn.Weights
	// Partial marks an update whose feature section was frozen at the
	// offload point and must be replaced by the strong client's result.
	Partial bool
}

// LocalConfig is the per-round local training configuration the federator
// ships with the global model.
type LocalConfig struct {
	Round     int
	Epochs    int
	BatchSize int
	LR        float64
	// Mu is the FedProx proximal coefficient (0 disables it).
	Mu float64
	// ProfileBatches enables Aergia's online profiler for the first P
	// batches of the round (0 disables profiling).
	ProfileBatches int
}

// TrainPayload starts local training (comm.KindTrain).
type TrainPayload struct {
	Config LocalConfig
	// Global is the model to train from. The federator, the async federator
	// and an edge aggregator each dispatch one snapshot by reference to every
	// client it goes to (a serializing transport copies per send anyway), and
	// keep it as the codec's delta base and, at the root, as Aggregate's prev
	// and the evaluated model: every holder reads it and none may write it.
	Global nn.Weights
}

// ProfilePayload carries the online profiling report (comm.KindProfile).
type ProfilePayload struct {
	Report profile.Report
}

// SchedulePayload carries a signed freeze/offload directive
// (comm.KindSchedule).
type SchedulePayload struct {
	Envelope sched.Envelope
}

// OffloadPayload transfers a frozen model from a weak client to its matched
// strong client (comm.KindOffload).
type OffloadPayload struct {
	Weak comm.NodeID
	// Weights is the weak client's model at the offload point (raw form,
	// codec none).
	Weights nn.Weights
	// Encoded replaces Weights when the run has a wire codec: the
	// codec-encoded delta against the round's global base, which the
	// strong client decodes with its own copy of the base.
	Encoded EncodedWeights
	// Updates is the number of feature-training batches the strong client
	// should run on its own dataset.
	Updates int
}

// UpdatePayload carries a client's trained model (comm.KindUpdate).
type UpdatePayload struct {
	Update Update
	// Encoded replaces Update.Weights when the run has a wire codec; the
	// federator decodes it against the round base before aggregation.
	Encoded EncodedWeights
}

// OffloadResultPayload returns the feature section a strong client trained
// for a weak client (comm.KindOffloadResult).
type OffloadResultPayload struct {
	Weak    comm.NodeID
	Strong  comm.NodeID
	Feature []float64
	// Encoded replaces Feature when the run has a wire codec (only the
	// Feature section is populated).
	Encoded EncodedWeights
}

// RegisterPayloads announces every protocol payload type to reg, so
// serializing transports (gob over TCP) learn the concrete types without
// callers hand-enumerating them. Deployment calls this automatically for
// transports implementing comm.PayloadRegistry; code wiring rpc.Peer by
// hand calls fl.RegisterPayloads(rpc.RegisterPayload) once at startup.
// New payload types are added here, nowhere else.
func RegisterPayloads(reg func(any)) {
	reg(TrainPayload{})
	reg(ProfilePayload{})
	reg(SchedulePayload{})
	reg(OffloadPayload{})
	reg(UpdatePayload{})
	reg(OffloadResultPayload{})
	// Fault notices stay process-local in flat runs (the chaos layer calls
	// the federator handler directly), but the hier router tees them to the
	// owning edge as real sends, which can cross a wire in a tiered rpc
	// deployment.
	reg(comm.FaultPayload{})
}

// RoundStats records the outcome of one global round.
type RoundStats struct {
	Round int
	// Duration is the wall time of the round as measured by the federator.
	Duration time.Duration
	// Accuracy is the global model's test accuracy after the round, or -1
	// when the round was not evaluated (see Config.EvalEvery).
	Accuracy float64
	// Completed is the number of client updates aggregated (deadline
	// strategies may drop stragglers).
	Completed int
	// Offloads is the number of freeze/offload pairs Aergia scheduled.
	Offloads int
}

// Results aggregates an experiment run.
type Results struct {
	Strategy string
	Rounds   []RoundStats
	// PreTraining is time spent before round 0 (offline profiling for
	// TiFL, enclave attestation and sealed submissions for Aergia).
	PreTraining time.Duration
	// TotalTime is PreTraining plus all round durations.
	TotalTime time.Duration
	// FinalAccuracy is the last evaluated test accuracy.
	FinalAccuracy float64
	// Bandwidth reports the bytes the run put on the wire, by traffic
	// class (exact on the sim transport, a completion-time lower bound
	// over TCP). Deployment.Run fills it from the cluster's counters.
	Bandwidth BandwidthStats
}

// RoundDurations extracts the per-round durations (Figure 8's samples).
func (r *Results) RoundDurations() []time.Duration {
	out := make([]time.Duration, len(r.Rounds))
	for i, rs := range r.Rounds {
		out[i] = rs.Duration
	}
	return out
}

// MeanRoundDuration returns the average round duration.
func (r *Results) MeanRoundDuration() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, rs := range r.Rounds {
		total += rs.Duration
	}
	return total / time.Duration(len(r.Rounds))
}

// AccuracyOverTime returns (elapsed time, accuracy) pairs for the evaluated
// rounds, used by the Figure 10 style accuracy-vs-time curves.
func (r *Results) AccuracyOverTime() (times []time.Duration, accs []float64) {
	elapsed := r.PreTraining
	for _, rs := range r.Rounds {
		elapsed += rs.Duration
		if rs.Accuracy >= 0 {
			times = append(times, elapsed)
			accs = append(accs, rs.Accuracy)
		}
	}
	return times, accs
}

// TotalOffloads sums the offload pairs over all rounds.
func (r *Results) TotalOffloads() int {
	total := 0
	for _, rs := range r.Rounds {
		total += rs.Offloads
	}
	return total
}
