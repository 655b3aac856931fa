# Build, vet, and test the whole reproduction. `make ci` is what the
# GitHub Actions workflow runs; the stdlib is the only dependency.

GO ?= go

.PHONY: all build vet test race smoke ci

all: ci

build:
	$(GO) build ./...

# vet also fails on any file gofmt would change.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# End-to-end smoke: a few seconds of every benchmark workload through the
# real stack (bench/ is the one speed harness), then every example program.
# The paper's shapes are asserted by `go test` (TestPaperShapes and the
# soaks in internal/workload), which `race` already runs.
smoke:
	$(GO) run ./bench -quick
	for e in examples/*/; do $(GO) run ./$$e || exit 1; done

ci: build vet race smoke
