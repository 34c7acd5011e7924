package aergia_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateLines = flag.Bool("update", false, "rewrite testdata/lines.txt from the tree")

// TestPackageLineCounts pins the non-test Go lines of every package outside
// bench/, and their total, in testdata/lines.txt. A change that grows or
// shrinks a package then shows as a diff of that table, reviewed like a
// golden. Run with -update to rewrite it after such a change.
func TestPackageLineCounts(t *testing.T) {
	counts := map[string]int{}
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (path == "bench" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(src, []byte("\n"))
		counts[filepath.ToSlash(filepath.Dir(path))] += n
		total += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# Non-test Go lines by package, outside bench/. Rewrite: go test -run TestPackageLineCounts -update .\n")
	for _, dir := range slices.Sorted(maps.Keys(counts)) {
		fmt.Fprintf(&b, "%6d %s\n", counts[dir], dir)
	}
	fmt.Fprintf(&b, "%6d total\n", total)
	got := b.String()

	table := filepath.Join("testdata", "lines.txt")
	if *updateLines {
		if err := os.WriteFile(table, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	var diff strings.Builder
	for _, line := range wantLines {
		if !slices.Contains(gotLines, line) {
			diff.WriteString("- " + line + "\n")
		}
	}
	for _, line := range gotLines {
		if !slices.Contains(wantLines, line) {
			diff.WriteString("+ " + line + "\n")
		}
	}
	t.Fatalf("line counts diverged from %s; if the change is meant, rerun with -update:\n%s", table, diff.String())
}
