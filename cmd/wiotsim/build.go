package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/wiot-security/sift/internal/campaign"
	_ "github.com/wiot-security/sift/internal/campaign/catalog" // registers the standard declarations
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/telemetry"
)

// buildMain is the `wiotsim build` subcommand: the CLI face of the
// declarative campaign layer. It lists, lints, canonicalizes, and runs
// registered campaign declarations.
//
// Usage:
//
//	wiotsim build -list
//	wiotsim build -lint [campaign ...]
//	wiotsim build -canon <campaign ...>
//	wiotsim build [run] <campaign ...> [-manifest out.json]
//
// The optional `run` keyword names the default action explicitly, and
// flags may follow the campaign names (`build run sharded-smoke
// -manifest out.json` reads naturally).
//
// Exit codes mirror wiotlint: 0 clean, 1 lint violations or a failed
// run, 2 usage errors.
func buildMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("wiotsim build", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list registered campaigns and exit")
	lint := fs.Bool("lint", false, "validate declarations (campaign.Validate) instead of running")
	canon := fs.Bool("canon", false, "print each campaign's canonical form and declaration digest instead of running")
	manifest := fs.String("manifest", "", "write the run's manifest (deterministic JSON run report) to this file; needs exactly one campaign")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range campaign.All() {
			fmt.Fprintf(out, "%-18s %-8s digest=%-8s %s\n", c.Name, c.Kind, c.Digest, c.Description)
		}
		return 0
	}

	// The stdlib flag package stops at the first positional, so reparse
	// the tail until it is exhausted: campaign names and flags may
	// interleave, and an optional leading `run` keyword is accepted.
	names, rest := []string(nil), fs.Args()
	if len(rest) > 0 && rest[0] == "run" {
		rest = rest[1:]
	}
	for len(rest) > 0 {
		if rest[0] == "--" {
			names = append(names, rest[1:]...)
			break
		}
		if len(rest[0]) > 0 && rest[0][0] != '-' {
			names = append(names, rest[0])
			rest = rest[1:]
			continue
		}
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		rest = fs.Args()
	}

	selected, err := selectCampaigns(names)
	if err != nil {
		fmt.Fprintln(errOut, "wiotsim build:", err)
		return 2
	}

	switch {
	case *lint:
		violations := 0
		for _, c := range selected {
			if err := c.Validate(); err != nil {
				violations++
				fmt.Fprintf(out, "%s: %v\n", c.Name, err)
				continue
			}
			fmt.Fprintf(out, "%s: ok (decl digest %s)\n", c.Name, c.DeclDigest()[:12])
		}
		if violations > 0 {
			fmt.Fprintf(errOut, "wiotsim build: %d campaign(s) failed validation\n", violations)
			return 1
		}
		return 0
	case *canon:
		if len(names) == 0 {
			fmt.Fprintln(errOut, "wiotsim build: -canon needs campaign names")
			return 2
		}
		for _, c := range selected {
			fmt.Fprint(out, c.Canonical())
			fmt.Fprintf(out, "# decl digest %s\n", c.DeclDigest())
		}
		return 0
	}

	if len(names) == 0 {
		fmt.Fprintln(errOut, "wiotsim build: name a campaign to run, or use -list / -lint / -canon")
		return 2
	}
	if *manifest != "" && len(names) != 1 {
		fmt.Fprintln(errOut, "wiotsim build: -manifest needs exactly one campaign (the report describes a single run)")
		return 2
	}
	for _, c := range selected {
		if code := runCampaign(c, *manifest, out, errOut); code != 0 {
			return code
		}
	}
	return 0
}

// selectCampaigns resolves names against the registry; no names means
// every registered campaign.
func selectCampaigns(names []string) ([]campaign.Campaign, error) {
	if len(names) == 0 {
		return campaign.All(), nil
	}
	out := make([]campaign.Campaign, 0, len(names))
	for _, name := range names {
		c, err := campaign.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// runCampaign synthesizes and executes one declaration, printing the
// outcome and its verdict digest. A non-empty manifestPath additionally
// observes the run (telemetry plus, for sharded plans, metrics
// federation) and writes the deterministic JSON run report there.
func runCampaign(c campaign.Campaign, manifestPath string, out, errOut io.Writer) int {
	fmt.Fprintf(out, "campaign %s (%s): %s\n", c.Name, c.Kind, c.Description)
	plan, err := c.Synthesize()
	if err != nil {
		fmt.Fprintln(errOut, "wiotsim build:", err)
		return 1
	}
	if manifestPath != "" {
		plan.Observe(campaign.ObserveConfig{
			Telemetry:  telemetry.NewRegistry(),
			Federation: federate.New(),
		})
	}
	start := time.Now()
	o, err := plan.Run(context.Background())
	if err != nil {
		fmt.Fprintln(errOut, "wiotsim build:", err)
		return 1
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	switch {
	case o.Auth != nil:
		a := o.Auth
		fmt.Fprintf(out, "baseline %s\nauthed   %s\n", a.BaselineDigest[:16], a.AuthedDigest[:16])
		if a.Converged {
			fmt.Fprintf(out, "verdicts converged under %d/%d/%d tampered/replayed/spliced forgeries\n",
				a.Tampered, a.Replayed, a.Spliced)
		}
		for _, w := range a.Wire {
			fmt.Fprintf(out, "  %-22s sent=%d accepted=%d rejected=%d honest=%d\n",
				w.Name, w.ForgedSent, w.ForgedAccepted, w.Rejected, w.HonestAccepted)
		}
		if !a.Converged || a.ForgedAccepted != 0 {
			fmt.Fprintf(errOut, "wiotsim build: auth-adversary failed: converged=%t forged_accepted=%d\n",
				a.Converged, a.ForgedAccepted)
			return 1
		}
	case o.Fleet != nil:
		fmt.Fprintf(out, "%s", o.Fleet)
		if plan.Shard != nil {
			fmt.Fprintf(out, "stations:\n%s", plan.Shard.Registry)
		}
		if err := o.Fleet.Err(); err != nil {
			fmt.Fprintln(errOut, "wiotsim build:", err)
			return 1
		}
	case o.Gallery != nil:
		g := o.Gallery
		fmt.Fprintf(out, "clean baseline: %d/%d windows pass\n", g.Clean, g.Windows)
		for _, a := range g.Arms {
			fmt.Fprintf(out, "  %-14s detected %2d/%2d attacked windows\n", a.Name, a.Detected, a.Total)
		}
	case o.Adaptive != nil:
		a := o.Adaptive
		fmt.Fprintf(out, "battery lasted %.1f days with %d version switches\n", a.ElapsedHr/24, a.Switches)
		for _, w := range a.Windows {
			fmt.Fprintf(out, "  %-11s %d windows classified\n", w.Version, w.Windows)
		}
	}
	fmt.Fprintf(out, "verdict digest %s (decl %s) in %v\n\n", o.VerdictDigest()[:16], c.DeclDigest()[:12], elapsed)

	if manifestPath != "" {
		m := plan.Manifest(o)
		b, err := m.Encode()
		if err != nil {
			fmt.Fprintln(errOut, "wiotsim build: encode manifest:", err)
			return 1
		}
		if err := os.WriteFile(manifestPath, b, 0o644); err != nil {
			fmt.Fprintln(errOut, "wiotsim build: write manifest:", err)
			return 1
		}
		digest, err := m.Digest()
		if err != nil {
			fmt.Fprintln(errOut, "wiotsim build: digest manifest:", err)
			return 1
		}
		fmt.Fprintf(out, "manifest %s (digest %s)\n", manifestPath, digest[:16])
	}
	return 0
}
