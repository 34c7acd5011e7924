package fl

import (
	"fmt"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/hier"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/sim"
)

// Transport names accepted by CanonicalTransport, NewTransport, and the
// Config/AsyncConfig Transport fields.
const (
	// TransportSim is the deterministic virtual-time simulator (default).
	TransportSim = "sim"
	// TransportTCP runs the same actors over real TCP on loopback;
	// model math is unchanged but timings are wall-clock.
	TransportTCP = "tcp"
)

// CanonicalTransport resolves a transport name ("" means sim) and rejects
// unknown ones. Two names that canonicalize equally select the same
// transport, so normalized names are safe as dedup keys.
func CanonicalTransport(name string) (string, error) {
	switch name {
	case "", TransportSim:
		return TransportSim, nil
	case TransportTCP:
		return TransportTCP, nil
	}
	return "", fmt.Errorf("fl: unknown transport %q (want %q or %q)", name, TransportSim, TransportTCP)
}

// NewTransport constructs the named transport. The link model is honored by
// the simulator only: a real TCP deployment's links are physical, so link
// is ignored there (see DESIGN.md §6). The caller owns the transport and
// must Close it after the run.
func NewTransport(name string, link sim.LinkModel) (comm.Transport, error) {
	return newRunTransport(name, link, 0)
}

// newRunTransport additionally applies the wall-clock run timeout the
// Config/AsyncConfig wrappers carry (0 keeps the transport default; the
// simulator needs none).
func newRunTransport(name string, link sim.LinkModel, timeout time.Duration) (comm.Transport, error) {
	canon, err := CanonicalTransport(name)
	if err != nil {
		return nil, err
	}
	if canon == TransportTCP {
		net := rpc.NewNetwork()
		net.Timeout = timeout
		return net, nil
	}
	return sim.NewNetwork(sim.NewKernel(), link), nil
}

// checkRun, when set, wraps the stack runOn built for cl's run over the
// named transport; the package's tests set it to their protocol checker. A
// Close error it returns fails the run.
var checkRun func(cl *Cluster, transport string, t comm.Transport) comm.Transport

// runOn is how Run and RunAsync execute a built cluster: the named
// transport under the fault, metrics and span interceptors — each absent
// when its input is zero, always in this order (DESIGN.md §15 has the hook
// table; Deployment.bind adds tier routing on top) — driven by run and
// closed.
func runOn[R any](cl *Cluster, name string, link sim.LinkModel, timeout time.Duration,
	run func(*Deployment) (*R, error)) (*R, error) {
	transport, err := newRunTransport(name, link, timeout)
	if err != nil {
		return nil, err
	}
	transport = chaos.Wrap(transport, cl.Topology.Chaos, cl.Topology.Seed)
	transport = obs.WrapTransport(transport, obs.Default)
	// The tracer is always on — every run feeds the flight recorder and the
	// span-latency histograms; Spans/Events are optional retention sinks.
	transport = tracerFor(cl.Topology).Wrap(transport)
	if checkRun != nil {
		transport = checkRun(cl, name, transport)
	}
	res, err := run(&Deployment{Cluster: cl, Transport: transport})
	if cerr := transport.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Deployment binds a built Cluster to a Transport and drives the run: it
// registers every actor, seals membership, feeds the payload types to
// serializing transports, starts the federator in its actor context, and
// pumps the transport until the run completes. The same Deployment code
// path serves sync, async, simulated, and real-TCP runs (DESIGN.md §6).
//
// The Deployment does not own the Transport: callers Close it after Run
// (the Run/RunAsync package-level wrappers do this for their callers).
type Deployment struct {
	Cluster   *Cluster
	Transport comm.Transport
}

// bind registers the cluster's actors on the transport and seals it. For
// hierarchical clusters it registers, instead of materialized clients, the
// client population as one ID range whose factory builds a client's lazy
// shell when the transport first addresses it (comm.RegisterRange), and
// the edge aggregators; when edge tiers exist it adds the hier.Route
// interceptor so client uplinks reach their owning edge — on the stack
// d.Transport already is, when it is one. The routed transport
// replaces d.Transport for the rest of the run (its Close reaches the
// original's, so callers closing the original are unaffected).
func (d *Deployment) bind(fed comm.Handler) error {
	hc := d.Cluster.Hier
	if hc != nil && hc.Options.Tiers > 0 {
		d.Transport = hier.Route(d.Transport, hc.Options.Tiers, d.Cluster.Topology.Seed)
	}
	if reg, ok := d.Transport.(comm.PayloadRegistry); ok {
		RegisterPayloads(reg.RegisterPayload)
	}
	if hc != nil {
		comm.RegisterRange(d.Transport, 0, comm.NodeID(d.Cluster.Topology.Clients),
			func(id comm.NodeID) comm.Handler { return hc.Shell(id) })
		for _, e := range hc.Edges {
			d.Transport.Register(e.ID, e)
		}
	} else {
		for _, c := range d.Cluster.Clients {
			d.Transport.Register(c.ID, c)
		}
	}
	d.Transport.Register(comm.FederatorID, fed)
	return d.Transport.Seal()
}

// drive is the body Run and RunAsync share: bind the actors, start the
// federator in its actor context, and pump the transport until the
// federator hands its results to onFinish (the federator's own OnFinish
// field, chained so a caller's hook still fires).
func drive[R any](d *Deployment, fed comm.Handler, start func(comm.Env), onFinish *func(*R)) (*R, error) {
	if err := d.bind(fed); err != nil {
		return nil, err
	}
	// Whatever the run leaves on its compute lanes — a cut straggler, a
	// crashed client's round — is cancelled and waited out here, so no step
	// of this run executes after it returned.
	defer d.Cluster.lanes.drain()
	var out *R
	done := make(chan struct{})
	prev := *onFinish
	*onFinish = func(r *R) {
		out = r
		if prev != nil {
			prev(r)
		}
		close(done)
	}
	d.Transport.Invoke(comm.FederatorID, start)
	if err := d.Transport.Drive(done); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("fl: experiment did not complete")
	}
	return out, nil
}

// Run drives a synchronous cluster to completion and returns its results.
func (d *Deployment) Run() (*Results, error) {
	if d.Cluster == nil || d.Transport == nil {
		return nil, fmt.Errorf("fl: deployment needs a cluster and a transport")
	}
	fed := d.Cluster.Federator
	if fed == nil {
		return nil, fmt.Errorf("fl: Run needs a sync cluster (the topology was built with Async set)")
	}
	out, err := drive(d, fed, fed.Start, &fed.OnFinish)
	if err != nil {
		return nil, err
	}
	out.TotalTime = out.PreTraining + sumDurations(out.Rounds)
	// The transport drained (sim) or the run signaled completion (tcp), so
	// the shared ledger now holds the run's wire traffic.
	out.Bandwidth = d.Cluster.Bandwidth.Snapshot()
	return out, nil
}

// RunAsync drives an asynchronous cluster until its update budget is
// exhausted and returns its results.
func (d *Deployment) RunAsync() (*AsyncResults, error) {
	if d.Cluster == nil || d.Transport == nil {
		return nil, fmt.Errorf("fl: deployment needs a cluster and a transport")
	}
	fed := d.Cluster.AsyncFederator
	if fed == nil {
		return nil, fmt.Errorf("fl: RunAsync needs an async cluster (set Topology.Async)")
	}
	out, err := drive(d, fed, fed.Start, &fed.OnFinish)
	if err != nil {
		return nil, err
	}
	out.Bandwidth = d.Cluster.Bandwidth.Snapshot()
	return out, nil
}
