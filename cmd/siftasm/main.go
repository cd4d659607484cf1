// Command siftasm is the firmware toolchain for the emulated Amulet: it
// builds detector firmware images, assembles hand-written VM assembly,
// disassembles images, and prints image metadata — the counterpart of the
// Amulet Firmware Toolchain's build-and-flash flow.
//
// Usage:
//
//	siftasm build -version Original -o sift.img
//	siftasm asm prog.asm -data 64 -o prog.img
//	siftasm disasm sift.img
//	siftasm info sift.img
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "siftasm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: siftasm build|asm|disasm|info [flags]")
	}
	switch args[0] {
	case "build":
		return buildCmd(args[1:])
	case "asm":
		return asmCmd(args[1:])
	case "disasm":
		return disasmCmd(args[1:])
	case "info":
		return infoCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func buildCmd(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	versionName := fs.String("version", "Original", "detector version")
	out := fs.String("o", "", "output image path (default <version>.img)")
	pedometer := fs.Bool("pedometer", false, "build the pedometer app instead of a detector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p *amulet.Program
	var err error
	if *pedometer {
		p, err = program.BuildPedometer()
	} else {
		var v features.Version
		if v, err = features.ParseVersion(*versionName); err == nil {
			p, err = program.Build(v)
		}
	}
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = p.Name + ".img"
	}
	img, err := amulet.EncodeImage(p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d B image, %d B code (%d B modeled flash), %d data words\n",
		path, len(img), p.CodeSize(), p.FootprintBytes(), p.DataWords)
	return nil
}

func asmCmd(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	out := fs.String("o", "out.img", "output image path")
	name := fs.String("name", "", "program name (default: source file name)")
	dataWords := fs.Int("data", 0, "data segment size in words")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm needs one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	progName := *name
	if progName == "" {
		progName = fs.Arg(0)
	}
	p, err := amulet.ParseAsm(progName, string(src), *dataWords)
	if err != nil {
		return err
	}
	img, err := amulet.EncodeImage(p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, img, 0o644); err != nil {
		return err
	}
	fmt.Printf("assembled %s → %s (%d B code)\n", fs.Arg(0), *out, p.CodeSize())
	return nil
}

func loadImage(path string) (*amulet.Program, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return amulet.DecodeImage(img)
}

func disasmCmd(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm needs one image file")
	}
	p, err := loadImage(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("; %s — %d B code, %d data words\n", p.Name, p.CodeSize(), p.DataWords)
	for _, line := range p.Disassemble() {
		fmt.Println(line)
	}
	return nil
}

func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs one image file")
	}
	p, err := loadImage(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("name:          %s\n", p.Name)
	fmt.Printf("code:          %d B (VM encoding), %d B modeled flash\n", p.CodeSize(), p.FootprintBytes())
	fmt.Printf("data segment:  %d words (%d B)\n", p.DataWords, 4*p.DataWords)
	fmt.Printf("soft-float:    %v\n", p.UsesSoftFloat)
	fmt.Printf("libm:          %v\n", p.UsesLibm)
	fmt.Printf("fixmath:       %v\n", p.UsesFixMath)
	return nil
}
