package hier

import "aergia/internal/comm"

// Route adds the actor-ID→tier router above inner (see
// comm.Interceptor.On): any message a client (non-negative ID) addresses to
// the federator is rewritten to the edge aggregator that owns the client,
// per Assign's stable hash. Actors keep speaking the flat protocol — "send
// my update to the federator" — and the router turns it into the tree,
// dvactor-style: ownership is a pure function of the actor ID, so the same
// rewrite works whether the edge lives in this process (sim) or across a
// socket (rpc), and no membership table ever crosses the wire.
//
// Route(inner, 0, seed) returns inner unchanged: the flat topology pays
// nothing.
func Route(inner comm.Transport, tiers int, seed uint64) comm.Transport {
	if tiers <= 0 {
		return inner
	}
	owner := func(client comm.NodeID) comm.NodeID { return EdgeID(Assign(seed, client, tiers)) }
	return comm.Interceptor{
		// The rewrite keys on the sending node — not Message.From, which the
		// transport below stamps after this layer — so only client-originated
		// federator traffic is redirected; edges (negative IDs) still reach
		// the root directly.
		Send: func(l comm.Layer, msg comm.Message) {
			if l.ID() >= 0 && msg.To == comm.FederatorID {
				msg.To = owner(l.ID())
			}
			l.Send(msg)
		},
		// The fault layer addresses client liveness notices to the federator
		// only — it predates the hierarchy and has no notion of edges. In a
		// tiered run the node that actually waits on a client is the edge that
		// owns it, so the router tees a copy of each client-scoped fault notice
		// to the owning tier, sent through the layers below like any federator
		// message. The root still sees the original: its selected set holds
		// edge IDs, so client notices are inert there.
		Deliver: func(l comm.Layer, msg comm.Message) {
			if l.ID() == comm.FederatorID && msg.Kind == comm.KindFault {
				if fp, ok := msg.Payload.(comm.FaultPayload); ok && fp.Node >= 0 {
					l.Send(comm.Message{
						To:      owner(fp.Node),
						Round:   msg.Round,
						Kind:    comm.KindFault,
						Payload: fp,
					})
				}
			}
			l.Deliver(msg)
		},
	}.On(inner)
}
