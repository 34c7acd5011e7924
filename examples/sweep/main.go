// Sweep: submit a parameter grid to a running aergiad daemon, poll until
// every job lands, and print where each result came from.
//
// Start the daemon first, then run the example:
//
//	go run ./cmd/aergiad -addr :8080 -store aergiad.jsonl &
//	go run ./examples/sweep
//
// Submitting the same grid twice demonstrates the resume path: the second
// submission is answered entirely from the daemon's result store, so every
// job is already "done" in the submit response. The same grid also runs
// without a daemon at all: aergia -sweep @grid.json -store out.jsonl.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"aergia/internal/runner"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "aergiad base URL")
	flag.Parse()
	if err := run(*addr); err != nil {
		log.Fatal(err)
	}
}

func run(base string) error {
	// Four quick cells: the main IID grid at two seeds in both element
	// types, float64 and float32.
	sweep := runner.Sweep{
		Experiments: []string{"fig6"},
		Seeds:       []uint64{1, 2},
		Backends:    []string{"serial", "serial32"},
		Quick:       []bool{true},
	}
	body, err := json.Marshal(map[string]any{"sweep": sweep})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit sweep (is aergiad running?): %w", err)
	}
	defer resp.Body.Close()
	var submitted struct {
		Jobs  []runner.JobState `json:"jobs"`
		Error string            `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		return err
	}
	if submitted.Error != "" {
		return fmt.Errorf("daemon rejected sweep: %s", submitted.Error)
	}
	fmt.Printf("submitted %d jobs to %s\n", len(submitted.Jobs), base)

	for _, job := range submitted.Jobs {
		state, err := await(base, job.ID)
		if err != nil {
			return err
		}
		fmt.Printf("  %-22s %-6s seed %d  backend %-8s  %8.2fs wall  %5d result bytes\n",
			state.ID, state.Status, state.Options.Seed, state.Options.Backend,
			state.Elapsed.Seconds(), len(state.Result))
		if state.Status != runner.StatusDone {
			return fmt.Errorf("job %s failed: %s", state.ID, state.Error)
		}
	}
	fmt.Println("all jobs done — resubmit the same sweep and the daemon answers")
	fmt.Println("straight from its store without recomputing a single cell.")
	return nil
}

// await polls one job until it leaves the queue.
func await(base, id string) (runner.JobState, error) {
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			return runner.JobState{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return runner.JobState{}, fmt.Errorf("job %s: daemon returned %s", id, resp.Status)
		}
		var state runner.JobState
		err = json.NewDecoder(resp.Body).Decode(&state)
		resp.Body.Close()
		if err != nil {
			return runner.JobState{}, err
		}
		if state.Status == runner.StatusDone || state.Status == runner.StatusFailed {
			return state, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}
