// Package runner is the experiment service layer: a bounded-concurrency
// job queue over the experiment registry, a parameter-grid sweep expander,
// and an append-only JSONL result store (see DESIGN.md §5).
//
// Jobs are identified by their content — the experiment ID plus the
// normalized options — so the same work submitted twice (by a retried
// sweep, a restarted daemon, or an impatient client) is computed once and
// answered from the store afterwards.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"strings"

	"aergia/internal/experiments"
)

// Job is one unit of work: a single experiment run at fixed options.
type Job struct {
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	// id caches ID() for jobs built by NewJob, so a job is hashed once at
	// admission rather than at every queue hop; the exported fields must
	// not change afterwards. Unexported: it is never marshalled, and a job
	// decoded from JSON recomputes it on demand.
	id string
}

// NewJob validates the experiment ID and normalizes the options, so every
// job in the system carries the canonical form and equal work gets equal
// IDs.
func NewJob(experiment string, opt experiments.Options) (Job, error) {
	if _, ok := experiments.Index[experiment]; !ok {
		return Job{}, fmt.Errorf("runner: unknown experiment %q", experiment)
	}
	norm, err := opt.Normalize()
	if err != nil {
		return Job{}, err
	}
	job := Job{Experiment: experiment, Options: norm}
	job.id = job.ID()
	return job, nil
}

// ID returns the job's deterministic identifier: the experiment name plus
// a digest of the normalized options' canonical JSON. IDs are stable
// across processes, so they double as the dedup/resume key of the result
// store and the job URL of the daemon; hashing the JSON (rather than a
// hand-picked field list) keeps the key in lockstep with the Options
// schema as it grows. A job built by NewJob answers from its cache and
// allocates nothing; the cold path is jobID, kept out of line so that
// ID takes no address of j and a cached call moves nothing to the heap.
func (j Job) ID() string {
	if j.id != "" {
		return j.id
	}
	return jobID(j.Experiment, j.Options)
}

// jobID hashes experiment|opts. It encodes through a pointer to its own
// copy of the options, whose fields are then addressable, so json's
// omitzero checks box no copy of chaos.Plan or hier.Options; the hash
// input is built in a stack buffer.
//
//go:noinline
func jobID(experiment string, opts experiments.Options) string {
	enc, err := json.Marshal(&opts)
	if err != nil {
		// Options is a struct of plain scalars; Marshal cannot fail.
		panic(fmt.Sprintf("runner: marshal options: %v", err))
	}
	var stack [256]byte
	sum := sha256.Sum256(append(append(append(stack[:0], experiment...), '|'), enc...))
	// 96 bits of digest: collisions stay negligible even for sweeps of
	// billions of cells, where a shorter prefix's birthday bound would
	// silently serve one job's stored result as another's.
	return idKey{digest: [12]byte(sum[:12]), experiment: experiment}.String()
}

// idKey is a job ID as the store's index and the runner's order hold it.
// An ID of the form ID makes, <experiment>-<24 lowercase hex>, is its
// experiment and the 12 digest bytes the hex spells; any other ID is odd,
// and its experiment field holds the whole ID.
type idKey struct {
	digest     [12]byte
	odd        bool
	experiment string
}

// keyOf splits id. It allocates nothing.
func keyOf(id string) idKey {
	cut := len(id) - 2*len(idKey{}.digest) - 1
	if cut < 0 || id[cut] != '-' {
		return idKey{odd: true, experiment: id}
	}
	k, hexits := idKey{experiment: id[:cut]}, id[cut+1:]
	if _, err := hex.Decode(k.digest[:], []byte(hexits)); err != nil || strings.ContainsAny(hexits, "ABCDEF") {
		return idKey{odd: true, experiment: id}
	}
	return k
}

// String is the ID k was split from.
func (k idKey) String() string {
	if k.odd {
		return k.experiment
	}
	var hexits [2 * len(k.digest)]byte
	hex.Encode(hexits[:], k.digest[:])
	var b strings.Builder
	b.Grow(len(k.experiment) + 1 + len(hexits))
	b.WriteString(k.experiment)
	b.WriteByte('-')
	b.Write(hexits[:])
	return b.String()
}

// idSeed seeds the store's table, which lives in memory only.
var idSeed = maphash.MakeSeed()

// hash places k in the store's table. It hashes every digest byte: a
// file's IDs need not be SHA-256 output, and `table1-%024x` of a counter
// has 8 zero bytes in front.
func (k idKey) hash() uint64 {
	if k.odd {
		return maphash.String(idSeed, k.experiment)
	}
	return maphash.Bytes(idSeed, k.digest[:])
}

// Status is the lifecycle of a job inside the runner.
type Status string

// Job lifecycle states. StatusDone, StatusFailed, and StatusCanceled are
// terminal, and only they are persisted: a queued, leased or running job
// is live, and lives in the runner's memory alone.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusLeased   Status = "leased"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether s is the status of a finished job, the only
// kind the store indexes: a live job lives in the runner's memory alone,
// and a status this package does not know is no finished job.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}
