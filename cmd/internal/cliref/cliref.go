// Package cliref is the single definition point for every BLOCKWATCH
// command-line interface: each tool's flag set is constructed here, the
// binaries parse with it, and the docs generator (cmd/internal/docgen)
// walks the same flag.FlagSet values to render docs/cli.md. Because a
// flag that is not defined here neither parses nor documents, the
// reference cannot drift from the binaries.
package cliref

import (
	"flag"
	"io"
)

// FlagSetFunc builds one section's flag set, with errors and -h output
// directed at stderr (flag.ContinueOnError, matching every binary).
type FlagSetFunc func(stderr io.Writer) *flag.FlagSet

// Section is one flag-bearing entry point of a command: the root flag
// set for single-mode tools, or one subcommand for bwtrace/
// bwmonitord/bwbench-compare style tools.
type Section struct {
	// Name is the subcommand name, or "" for the tool's root flag set.
	Name string
	// Usage is the synopsis line, e.g. "bwrun [flags] <file.mc>".
	Usage string
	// Summary is one sentence on what the section does (root sections
	// may leave it empty and rely on the command summary).
	Summary string
	// Flags builds the section's flag set for parsing or introspection.
	// Nil means the section takes no flags.
	Flags FlagSetFunc
}

// Command describes one installable tool.
type Command struct {
	// Name is the binary name (bwrun, bwbench, ...).
	Name string
	// Summary is the one-line description used in the command index.
	Summary string
	// Description elaborates in a short paragraph.
	Description string
	// Sections lists the tool's entry points in display order.
	Sections []Section
	// Notes holds exit-status conventions and other trailing remarks.
	Notes string
}

// Commands returns the full CLI reference in display order. Every
// tool also accepts a leading -version flag (handled by
// internal/buildinfo before flag parsing), so it is not repeated in
// each section's flag set.
func Commands() []Command {
	return []Command{
		runCommand(),
		benchCommand(),
		injectCommand(),
		monitordCommand(),
		traceCommand(),
		ccCommand(),
		genCommand(),
	}
}

// newFlagSet is the shared construction idiom: ContinueOnError with
// usage and errors on stderr, exactly how the binaries parse.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}
