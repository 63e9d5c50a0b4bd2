package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates file (with parents) under dir.
func write(t *testing.T, dir, file, content string) {
	t.Helper()
	path := filepath.Join(dir, file)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runCheck(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = cliMain(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCleanRepoPasses(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# Title\n\nSee [docs](docs/guide.md) and [below](#section-two).\n\n## Section two\n\ntext\n")
	write(t, dir, "docs/guide.md", "# Guide\n\nBack to the [readme](../README.md#title).\n\n[external](https://example.com/x) is skipped.\n")
	write(t, dir, "internal/foo/foo.go", "// Package foo does a clearly documented thing for tests.\npackage foo\n")
	write(t, dir, "cmd/bar/main.go", "// Command bar exists purely so this test has a cmd package.\npackage main\n")

	code, stdout, stderr := runCheck(t, "-root", dir)
	if code != 0 {
		t.Fatalf("clean repo failed: code %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "ok") {
		t.Fatalf("no ok line: %q", stdout)
	}
}

func TestMissingPackageDocFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# T\n")
	write(t, dir, "internal/foo/foo.go", "package foo\n")
	write(t, dir, "internal/bar/bar.go", "// Package bar.\npackage bar\n") // too short to count

	code, _, stderr := runCheck(t, "-root", dir)
	if code != 1 {
		t.Fatalf("want exit 1, got %d (stderr %q)", code, stderr)
	}
	for _, frag := range []string{"internal/foo", "internal/bar", "2 problem(s)"} {
		if !strings.Contains(stderr, frag) {
			t.Fatalf("stderr missing %q:\n%s", frag, stderr)
		}
	}
}

func TestBrokenLinksFail(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", strings.Join([]string{
		"# Top",
		"",
		"[gone](docs/missing.md) breaks.",
		"[bad anchor](docs/guide.md#no-such-heading) breaks.",
		"[bad self](#nowhere) breaks.",
		"",
		"```",
		"[inside a fence](does/not/count.md)",
		"```",
		"",
		"[fine](docs/guide.md#guide)",
	}, "\n"))
	write(t, dir, "docs/guide.md", "# Guide\n")

	code, _, stderr := runCheck(t, "-root", dir, "README.md")
	if code != 1 {
		t.Fatalf("want exit 1, got %d (stderr %q)", code, stderr)
	}
	for _, frag := range []string{"docs/missing.md", "no-such-heading", "#nowhere", "3 problem(s)"} {
		if !strings.Contains(stderr, frag) {
			t.Fatalf("stderr missing %q:\n%s", frag, stderr)
		}
	}
	if strings.Contains(stderr, "does/not/count.md") {
		t.Fatalf("fenced link was checked:\n%s", stderr)
	}
}

func TestCommentRefsResolve(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# T\n")
	write(t, dir, "docs/guide.md", "# Guide\n")
	write(t, dir, "internal/foo/NOTES.md", "# Notes\n")
	write(t, dir, "internal/foo/foo.go", strings.Join([]string{
		"// Package foo cites docs/guide.md, README.md and NOTES.md, all present.",
		"package foo",
		"",
		"// Bar follows DESIGN.md, which is gone.",
		"func Bar() {}",
		"",
		"/* A block comment:",
		"   see docs/missing.md. */",
		"func Baz() {}",
		"",
		"// https://example.com/spec.md is external and not checked; neither is",
		"// a glob like *.md or a bare .md suffix.",
		"var x = \"strings such as GONE.md are not comments\"",
	}, "\n"))
	write(t, dir, ".hidden/skip.go", "// Package skip cites HIDDEN.md.\npackage skip\n")
	write(t, dir, "internal/foo/testdata/skip.go", "// Package skip sits in testdata and cites TESTDATA.md.\npackage skip\n")

	code, _, stderr := runCheck(t, "-root", dir, "README.md")
	if code != 1 {
		t.Fatalf("want exit 1, got %d (stderr %q)", code, stderr)
	}
	for _, frag := range []string{
		"internal/foo/foo.go:4: comment cites DESIGN.md",
		"internal/foo/foo.go:8: comment cites docs/missing.md",
		"2 problem(s)",
	} {
		if !strings.Contains(stderr, frag) {
			t.Fatalf("stderr missing %q:\n%s", frag, stderr)
		}
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Section two":                      "section-two",
		"Workloads & arrivals":             "workloads--arrivals",
		"The `-trace-scale` ordering rule": "the--trace-scale-ordering-rule",
		"Fit, then synthesize":             "fit-then-synthesize",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

// The real repository must pass its own gate: this is the same check the
// CI docs job runs, so a broken doc link fails `go test` locally first.
func TestRealRepoDocs(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	code, _, stderr := runCheck(t, "-root", root)
	if code != 0 {
		t.Fatalf("repository docs gate failed:\n%s", stderr)
	}
}
