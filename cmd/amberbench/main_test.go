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

// TestRejectsBadArguments pins the usage errors that exit 2 with one stderr
// line before any experiment runs: a positional argument (experiments are
// chosen with -only), a -parallel below the documented -1, and the retired
// reduced-resolution flag.
func TestRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list", "extra"}, `amberbench: unexpected argument "extra" (use -only)`},
		{[]string{"fig8"}, `amberbench: unexpected argument "fig8" (use -only)`},
		{[]string{"-only", "table4", "fig8"}, `amberbench: unexpected argument "fig8" (use -only)`},
		{[]string{"-parallel", "-7", "-only", "table4"}, "amberbench: bad -parallel -7: want -1 (NumCPU) or a non-negative worker count"},
		{[]string{"-quick"}, "flag provided but not defined: -quick"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q, want nothing on stdout", tc.args, stdout.String())
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); first != tc.want {
			t.Errorf("%q: stderr starts %q, want %q", tc.args, first, tc.want)
		}
	}
}
