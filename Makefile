# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench ci examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

# Every experiment table at the ring sizes EXPERIMENTS.md reports.
bench:
	dune exec bench/main.exe

ci:
	bin/ci.sh

examples:
	dune exec examples/quickstart.exe
	dune exec examples/graybox_design.exe
	dune exec examples/fault_injection.exe
	dune exec examples/bytecode_demo.exe
	dune exec examples/bidding_demo.exe
	dune exec examples/kstate_derivation.exe

doc:
	dune build @doc

clean:
	dune clean
