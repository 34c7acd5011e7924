package hier

import (
	"fmt"
	"sync/atomic"

	"aergia/internal/comm"
)

// Profile is the lazy stand-in for an unmaterialized client: the metadata
// the schedulers and samplers need (speed, data skew) without any of the
// state that makes a live client expensive (codec and jitter streams, and
// for the length of a round a training shard and a model replica). It is a
// pure function of (seed, ID), built when the transport first addresses
// the client, so a 100k-client run holds a profile for each client it
// touched and materializes only the sampled cohort.
type Profile struct {
	// ID is the client's actor identity.
	ID comm.NodeID
	// Speed is the relative compute speed (1 = nominal).
	Speed float64
	// Samples is the nominal size of the client's training shard; it weighs
	// the client in edge aggregates before the shard ever exists.
	Samples int
	// Classes is the client's label skew (non-IID class set); empty means
	// the full label space.
	Classes []int
}

// Hydrator materializes a full client actor from its profile and the
// continuation its last clean round parked with: nil for a first hydration,
// after a rejoin, or for a client whose rounds carry nothing to the next. It
// must be a pure function of the two — hydrating the same profile twice
// (after the client parked, or after a crash/rejoin dropped it) must yield an
// identically initialized actor, or determinism breaks. It runs inside the
// dispatch handler, once per sampled client and round, so it should do only
// what that round needs: fl's hydrator builds neither a network nor a shard.
// Each round leases a network and draws the shard from the cluster's one
// dataset.Source into sample tensors leased from the run's free list, and
// hands both back by its update (DESIGN.md §11). park is the client's way
// back to dormant: once a round has ended cleanly it calls it, last, with its
// continuation, and the shell drops it. A hydration and its first dispatch
// allocate about 17 kB, most of it the shard when the free list holds no
// returned tensors.
type Hydrator func(p Profile, cont any, park func(cont any)) (comm.Handler, error)

// LazyClient is the shell of an unmaterialized client. The population is
// registered as an ID range (comm.RangeRegistry), and a shell is what the
// range's factory builds when the transport first addresses its client,
// never before; it swaps in the real actor when a training dispatch reaches
// it dormant. Between rounds a client is only its continuation — the state
// its next round needs and a rehydration cannot regenerate — so a client
// whose round ended cleanly parks: the shell drops it, keeps the
// continuation and is dormant again until its next dispatch (the virtual
// actor's idiom: durable state apart from the activation). A chaos rejoin
// dehydrates the shell back to its bare profile — the crashed incarnation's
// state, its continuation included, is gone, exactly as a client process
// restart would lose it — and the next dispatch rebuilds it from the seed,
// so recovery needs no persisted checkpoint.
type LazyClient struct {
	// Profile is the dormant state.
	Profile Profile
	// Hydrate materializes the full client.
	Hydrate Hydrator

	inner comm.Handler
	// cont is what the parked client carries to its next round; nil while
	// it is hydrated, and when its rounds carry nothing.
	cont                        any
	hydrations, parked, dropped atomic.Int64
}

// Hydrated reports whether the full client is currently materialized.
func (c *LazyClient) Hydrated() bool { return c.inner != nil }

// Hydrations returns how many times this shell materialized its client: once
// per sampled round that reached it dormant.
func (c *LazyClient) Hydrations() int { return int(c.hydrations.Load()) }

// Dehydrations returns how many times this shell dropped its client, by
// cause: parked after a clean round, or dropped by a chaos rejoin. Every
// hydration ends in one of the two unless the client is still hydrated.
func (c *LazyClient) Dehydrations() (parked, rejoin int) {
	return int(c.parked.Load()), int(c.dropped.Load())
}

// OnMessage implements comm.Handler. A dormant shell answers only a
// training dispatch — anything else is protocol traffic for a client that
// is not in a round this incarnation, and dropping it is the lazy
// contract: unsampled clients cost no work.
func (c *LazyClient) OnMessage(env comm.Env, msg comm.Message) {
	if c.inner == nil {
		if msg.Kind != comm.KindTrain {
			return
		}
		h, err := c.Hydrate(c.Profile, c.cont, c.park)
		if err != nil {
			panic(fmt.Sprintf("hier: hydrating client %d: %v", c.Profile.ID, err))
		}
		c.inner, c.cont = h, nil
		c.hydrations.Add(1)
		hm().hydrations.Add(1)
	}
	c.inner.OnMessage(env, msg)
}

// park is the hydrated client's hand-back (Hydrator): the shell drops it and
// holds cont until the next dispatch.
func (c *LazyClient) park(cont any) {
	c.inner, c.cont = nil, cont
	c.parked.Add(1)
	hm().parked.Add(1)
}

// OnRejoin implements comm.Rejoiner: the rejoined incarnation starts
// dormant, holding only the profile — a parked client's continuation dies
// with the crash. The crashed incarnation, if hydrated, hears of the rejoin
// before it is dropped, so that it stops what it still has running (a
// client's compute lane trains a round nobody will read).
func (c *LazyClient) OnRejoin(env comm.Env) {
	c.cont = nil
	if c.inner == nil {
		return
	}
	if rj, ok := c.inner.(comm.Rejoiner); ok {
		rj.OnRejoin(env)
	}
	c.inner = nil
	c.dropped.Add(1)
	hm().rejoined.Add(1)
}
