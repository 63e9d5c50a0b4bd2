// Command docscheck is the documentation gate run by the CI docs job. It
// enforces three contracts the compiler cannot:
//
//   - every internal and cmd package has a package-level doc comment (a
//     real one — at least a sentence, not a bare "Package x."),
//   - every relative markdown link in the repository's documentation
//     resolves: linked files exist, and #fragment links point at a
//     heading whose GitHub-style anchor slug matches, and
//   - every markdown file a Go comment names (say docs/workloads.md)
//     exists, relative to the repository root or to the commenting file.
//
// External (http/https) links are deliberately not fetched: CI must stay
// hermetic, and a flaky remote host must not fail the build.
//
// Usage:
//
//	docscheck [-root DIR] [MARKDOWN ...]
//
// With no file arguments it checks README.md, ROADMAP.md and every
// .md file under docs/. Exit status 1 lists every violation on stderr.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("docscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root to check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		var err error
		if files, err = defaultDocs(*root); err != nil {
			fmt.Fprintln(stderr, "docscheck:", err)
			return 2
		}
	}
	var problems []string
	pkgProblems, err := checkPackageDocs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	problems = append(problems, pkgProblems...)
	refProblems, err := checkCommentRefs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	problems = append(problems, refProblems...)
	for _, f := range files {
		linkProblems, err := checkMarkdownLinks(*root, f)
		if err != nil {
			fmt.Fprintln(stderr, "docscheck:", err)
			return 2
		}
		problems = append(problems, linkProblems...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "docscheck:", p)
		}
		fmt.Fprintf(stderr, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Fprintf(stdout, "docscheck: ok (%d markdown files, all packages documented)\n", len(files))
	return 0
}

// defaultDocs is the standard file set: README.md, ROADMAP.md, and every
// markdown file under docs/, as paths relative to root.
func defaultDocs(root string) ([]string, error) {
	var files []string
	for _, f := range []string{"README.md", "ROADMAP.md"} {
		if _, err := os.Stat(filepath.Join(root, f)); err == nil {
			files = append(files, f)
		}
	}
	docsDir := filepath.Join(root, "docs")
	err := filepath.WalkDir(docsDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".md") {
			return nil //nolint:nilerr // a missing docs/ dir is not an error
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, rel)
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

// checkPackageDocs walks internal/ and cmd/ and reports every package
// whose merged package comment is missing or trivially short.
func checkPackageDocs(root string) ([]string, error) {
	var problems []string
	for _, top := range []string{"internal", "cmd"} {
		dir := filepath.Join(root, top)
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			doc, hasGo, err := packageDoc(path)
			if err != nil {
				return err
			}
			if !hasGo {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			if words := len(strings.Fields(doc)); words < 5 {
				problems = append(problems, fmt.Sprintf("%s: package has no real package-level doc comment (%d words)", rel, words))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return problems, nil
}

// packageDoc parses one directory's non-test Go files and returns the
// concatenated package doc comment and whether any Go files exist.
func packageDoc(dir string) (doc string, hasGo bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false, err
	}
	fset := token.NewFileSet()
	var b strings.Builder
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		hasGo = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return "", true, err
		}
		if f.Doc != nil {
			b.WriteString(f.Doc.Text())
		}
	}
	return b.String(), hasGo, nil
}

// mdRefRe matches a markdown file path cited in prose: a run of path
// characters ending in ".md".
var mdRefRe = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// checkCommentRefs parses every Go file under root (hidden directories and
// testdata skipped) and reports each markdown path named in a comment that
// exists neither relative to root nor relative to the file's directory.
// URLs are not checked.
func checkCommentRefs(root string) ([]string, error) {
	var problems []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, group := range f.Comments {
			for _, c := range group.List {
				line := fset.Position(c.Pos()).Line
				for i, text := range strings.Split(c.Text, "\n") {
					for _, field := range strings.Fields(text) {
						if strings.Contains(field, "://") {
							continue // external: not fetched, CI stays hermetic
						}
						for _, ref := range mdRefRe.FindAllString(field, -1) {
							if !exists(filepath.Join(root, ref)) && !exists(filepath.Join(filepath.Dir(path), ref)) {
								problems = append(problems, fmt.Sprintf("%s:%d: comment cites %s, which does not exist", rel, line+i, ref))
							}
						}
					}
				}
			}
		}
		return nil
	})
	return problems, err
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// linkRe matches inline markdown links [text](target); images and
// reference-style links are out of scope.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkMarkdownLinks validates every relative link in one markdown file
// (given relative to root): the target file exists, and a #fragment
// names a heading anchor in the target (or this file for bare
// #fragments). Code fences are skipped.
func checkMarkdownLinks(root, file string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external: not fetched, CI stays hermetic
			}
			path, frag, _ := strings.Cut(target, "#")
			ref := file // anchors in this file for bare #fragments
			if path != "" {
				ref = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q (%s does not exist)", file, lineNo+1, target, ref))
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(ref, ".md") {
				continue // anchors are only checkable in markdown
			}
			anchors, err := headingAnchors(filepath.Join(root, ref))
			if err != nil {
				return nil, err
			}
			if !anchors[frag] {
				problems = append(problems, fmt.Sprintf("%s:%d: broken anchor %q (no heading in %s slugs to #%s)", file, lineNo+1, target, ref, frag))
			}
		}
	}
	return problems, nil
}

// headingAnchors returns the GitHub-style anchor slugs of every heading
// in a markdown file: lowercase, punctuation stripped, spaces to
// hyphens, duplicate slugs suffixed -1, -2, ...
func headingAnchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == "" || text[0] != ' ' {
			continue
		}
		slug := slugify(strings.TrimSpace(text))
		if n := seen[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors, nil
}

// slugify lowercases, drops everything but letters/digits/spaces/hyphens
// (markdown emphasis and inline code markers included), and hyphenates
// spaces — the GitHub anchor algorithm for the subset our docs use.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
