package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONPathCheckedFirst pins -json's contract: the report file is created
// before any experiment runs, so an unwritable path exits 1 at once with
// nothing printed, and a writable one ends up holding the tables that were
// printed.
func TestJSONPathCheckedFirst(t *testing.T) {
	dir := t.TempDir()

	var stdout, stderr bytes.Buffer
	bad := filepath.Join(dir, "no-such-dir", "out.json")
	if code := run([]string{"-only", "table4", "-json", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable -json path: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an experiment ran before the -json path was checked:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "no-such-dir") {
		t.Fatalf("stderr does not name the path: %q", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	good := filepath.Join(dir, "out.json")
	if code := run([]string{"-only", "table4", "-json", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "table4" || len(rep.Experiments[0].Rows) == 0 {
		t.Fatalf("report holds %+v, want table4's rows", rep.Experiments)
	}
	if !strings.Contains(stdout.String(), "== table4:") {
		t.Fatalf("table4 was not printed:\n%s", stdout.String())
	}
}
