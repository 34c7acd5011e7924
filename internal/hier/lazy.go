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

// Hydrator materializes a full client actor from its profile. It must be a
// pure function of the profile — hydrating the same profile twice (e.g.
// after a crash/rejoin dropped the first incarnation) must yield an
// identically initialized actor, or determinism breaks. It runs inside the
// dispatch handler, once per sampled client, so it should do only what that
// client's round needs: fl's hydrator builds neither a network nor a shard.
// Each round leases a network and draws the shard from the cluster's one
// dataset.Source into sample tensors leased from the run's free list, and
// hands both back by its update (DESIGN.md §11). A hydration and its first
// dispatch allocate about 17 kB, most of it the shard when the free list
// holds no returned tensors.
type Hydrator func(Profile) (comm.Handler, error)

// LazyClient is the shell of an unmaterialized client. The population is
// registered as an ID range (comm.RangeRegistry), and a shell is what the
// range's factory builds when the transport first addresses its client,
// never before; it swaps in the real actor the first time a training
// dispatch reaches it. A chaos rejoin dehydrates the shell back to
// its profile — the crashed incarnation's state is gone, exactly as a
// client process restart would lose it — and the next dispatch rebuilds it
// from the seed, so recovery needs no persisted checkpoint.
type LazyClient struct {
	// Profile is the dormant state.
	Profile Profile
	// Hydrate materializes the full client.
	Hydrate Hydrator

	inner      comm.Handler
	hydrations atomic.Int64
}

// Hydrated reports whether the full client is currently materialized.
func (c *LazyClient) Hydrated() bool { return c.inner != nil }

// Hydrations returns how many times this shell materialized its client
// (more than once only after a rejoin dehydrated it).
func (c *LazyClient) Hydrations() int { return int(c.hydrations.Load()) }

// OnMessage implements comm.Handler. A dormant shell answers only a
// training dispatch — anything else is protocol traffic for a client that
// was never selected this incarnation, and dropping it is the lazy
// contract: unsampled clients cost no work.
func (c *LazyClient) OnMessage(env comm.Env, msg comm.Message) {
	if c.inner == nil {
		if msg.Kind != comm.KindTrain {
			return
		}
		h, err := c.Hydrate(c.Profile)
		if err != nil {
			panic(fmt.Sprintf("hier: hydrating client %d: %v", c.Profile.ID, err))
		}
		c.inner = h
		c.hydrations.Add(1)
		hm().hydrations.Add(1)
	}
	c.inner.OnMessage(env, msg)
}

// OnRejoin implements comm.Rejoiner: the rejoined incarnation
// starts dormant again, holding only the profile. The crashed incarnation
// hears of the rejoin before it is dropped, so that it stops what it still
// has running (a client's compute lane trains a round nobody will read).
func (c *LazyClient) OnRejoin(env comm.Env) {
	if c.inner == nil {
		return
	}
	if rj, ok := c.inner.(comm.Rejoiner); ok {
		rj.OnRejoin(env)
	}
	c.inner = nil
	hm().dehydrations.Add(1)
}
