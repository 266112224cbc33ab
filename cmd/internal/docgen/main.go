// Command docgen generates the repo's derived documentation from the
// code that defines it: docs/cli.md from the cmd/internal/cliref flag
// registry, and the README experiment table from the internal/harness
// experiment registry.
//
// Usage:
//
//	go run ./cmd/internal/docgen            regenerate in place
//	go run ./cmd/internal/docgen -check     fail (exit 1) if anything would change
//	go run ./cmd/internal/docgen -links     check markdown links in README and docs/
//
// docs/cli.md is fully generated; README.md is a hand-written file with
// one marker-delimited generated block:
//
//	<!-- generated:NAME:begin -->
//	...replaced by docgen...
//	<!-- generated:NAME:end -->
//
// CI runs `-check -links`, so drift between the registries and the
// rendered docs — or a broken relative link — fails the build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "docgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("docgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root  = fs.String("root", ".", "repository root")
		check = fs.Bool("check", false, "verify the generated docs are current; exit nonzero on drift")
		links = fs.Bool("links", false, "check relative markdown links and anchors in README.md and docs/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *links {
		if err := checkLinks(*root, stdout); err != nil {
			return err
		}
		// -links alone skips generation; -links -check does both.
		if !*check && fs.NFlag() > 0 && !generateRequested(fs) {
			return nil
		}
	}

	targets, err := renderAll(*root)
	if err != nil {
		return err
	}
	var drifted []string
	for _, t := range targets {
		current, err := os.ReadFile(t.path)
		switch {
		case err == nil && string(current) == t.content:
			continue
		case *check:
			drifted = append(drifted, t.path)
		case err != nil && !os.IsNotExist(err):
			return err
		default:
			if err := os.WriteFile(t.path, []byte(t.content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "docgen: wrote %s\n", t.path)
		}
	}
	if len(drifted) > 0 {
		return fmt.Errorf("generated docs out of date: %s (run `go run ./cmd/internal/docgen`)",
			strings.Join(drifted, ", "))
	}
	if *check {
		fmt.Fprintln(stdout, "docgen: docs are current")
	}
	return nil
}

// generateRequested reports whether any generation-related flag was
// passed alongside -links (today only -check and -root matter).
func generateRequested(fs *flag.FlagSet) bool {
	requested := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "check" || f.Name == "root" {
			requested = true
		}
	})
	return requested
}

// target is one file docgen manages (fully or via a marker block).
type target struct {
	path    string
	content string
}

// renderAll produces the desired content of every managed file.
func renderAll(root string) ([]target, error) {
	var targets []target
	targets = append(targets, target{
		path:    filepath.Join(root, "docs", "cli.md"),
		content: cliMarkdown(),
	})

	readmePath := filepath.Join(root, "README.md")
	readme, err := patchFile(readmePath, "experiments", experimentTable())
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{path: readmePath, content: readme})
	return targets, nil
}

// patchFile replaces the named generated block inside a hand-written
// file and returns the resulting content.
func patchFile(path, name, body string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	begin := "<!-- generated:" + name + ":begin -->"
	end := "<!-- generated:" + name + ":end -->"
	content := string(raw)
	i := strings.Index(content, begin)
	j := strings.Index(content, end)
	if i < 0 || j < 0 || j < i {
		return "", fmt.Errorf("%s: missing %q markers", path, name)
	}
	return content[:i+len(begin)] + "\n" + body + content[j:], nil
}

// cliMarkdown renders docs/cli.md from the cliref registry.
func cliMarkdown() string {
	var b strings.Builder
	b.WriteString("# CLI reference\n\n")
	b.WriteString("<!-- Generated by cmd/internal/docgen from the flag definitions in\n")
	b.WriteString("     cmd/internal/cliref. Do not edit; regenerate with `make docs`\n")
	b.WriteString("     (or `go run ./cmd/internal/docgen`). CI fails on drift. -->\n\n")
	b.WriteString("Every tool accepts a leading `-version` flag printing the build\n")
	b.WriteString("version (and, in VCS builds, the git revision) before any other\n")
	b.WriteString("argument handling. All flag sets parse in `ContinueOnError` mode:\n")
	b.WriteString("bad usage prints to stderr and exits 1 without side effects.\n\n")

	b.WriteString("| Tool | Summary |\n|---|---|\n")
	for _, c := range cliref.Commands() {
		fmt.Fprintf(&b, "| [%s](#%s) | %s |\n", c.Name, c.Name, escapeCell(c.Summary))
	}
	b.WriteString("\n")

	for _, c := range cliref.Commands() {
		fmt.Fprintf(&b, "## %s\n\n%s\n\n", c.Name, c.Description)
		for _, s := range c.Sections {
			if s.Name != "" {
				fmt.Fprintf(&b, "### %s %s\n\n", c.Name, s.Name)
				if s.Summary != "" {
					fmt.Fprintf(&b, "%s.\n\n", strings.TrimSuffix(s.Summary, "."))
				}
			}
			fmt.Fprintf(&b, "```\n%s\n```\n\n", s.Usage)
			if s.Flags == nil {
				continue
			}
			fs := s.Flags(io.Discard)
			var rows []string
			fs.VisitAll(func(f *flag.Flag) {
				def := f.DefValue
				if def != "" {
					def = "`" + def + "`"
				}
				rows = append(rows, fmt.Sprintf("| `-%s` | %s | %s |", f.Name, def, escapeCell(f.Usage)))
			})
			if len(rows) == 0 {
				b.WriteString("(no flags)\n\n")
				continue
			}
			b.WriteString("| Flag | Default | Description |\n|---|---|---|\n")
			b.WriteString(strings.Join(rows, "\n"))
			b.WriteString("\n\n")
		}
		if c.Notes != "" {
			fmt.Fprintf(&b, "%s\n\n", c.Notes)
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// experimentTable renders the README's bwbench experiment table from
// the harness registry.
func experimentTable() string {
	var b strings.Builder
	b.WriteString("| `-exp` id | records | what it runs |\n|---|---|---|\n")
	for _, e := range harness.Experiments() {
		records := "—"
		if e.Perf {
			records = "`-json`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", e.ID, records, escapeCell(e.Desc))
	}
	return b.String()
}

// escapeCell makes a string safe inside a markdown table cell.
func escapeCell(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}

// linkRe matches inline markdown links; image links share the shape.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingRe matches ATX headings for anchor collection.
var headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)

// checkLinks verifies every relative link and intra-repo anchor in
// README.md and docs/*.md. External (scheme-qualified) links are out of
// scope: the checker must work offline.
func checkLinks(root string, stdout io.Writer) error {
	files := []string{filepath.Join(root, "README.md")}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return err
	}
	files = append(files, docs...)

	var broken []string
	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(raw), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue
			}
			checked++
			path, anchor, _ := strings.Cut(link, "#")
			targetFile := file
			if path != "" {
				targetFile = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(targetFile); err != nil {
					broken = append(broken, fmt.Sprintf("%s: %s (file not found)", file, link))
					continue
				}
			}
			if anchor == "" {
				continue
			}
			if !strings.HasSuffix(targetFile, ".md") {
				continue // anchors into non-markdown files are not checkable
			}
			ok, err := hasAnchor(targetFile, anchor)
			if err != nil {
				return err
			}
			if !ok {
				broken = append(broken, fmt.Sprintf("%s: %s (missing anchor)", file, link))
			}
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("%d broken link(s):\n  %s", len(broken), strings.Join(broken, "\n  "))
	}
	fmt.Fprintf(stdout, "docgen: %d relative link(s) across %d file(s) ok\n", checked, len(files))
	return nil
}

// hasAnchor reports whether the markdown file has a heading whose
// GitHub-style slug matches the anchor.
func hasAnchor(path, anchor string) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, m := range headingRe.FindAllStringSubmatch(string(raw), -1) {
		if slugify(m[1]) == strings.ToLower(anchor) {
			return true, nil
		}
	}
	return false, nil
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// strip everything but letters/digits/spaces/hyphens/underscores, then
// spaces become hyphens.
func slugify(heading string) string {
	heading = strings.TrimSpace(strings.ToLower(heading))
	heading = strings.Trim(heading, "#` ")
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_',
			'a' <= r && r <= 'z',
			'0' <= r && r <= '9',
			r > 127: // GitHub keeps non-ASCII letters
			b.WriteRune(r)
		}
	}
	return b.String()
}
