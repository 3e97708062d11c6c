# Local entry points mirroring the CI jobs: `make lint` runs exactly what
# the required lint job runs, so a clean local pass means a clean gate.

GO ?= go

.PHONY: all build test race lint vet staticcheck check bench-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = go vet + the repo's own invariant analyzers (cmd/bcast-lint):
# detrand, ctxflow, lockguard, senterr. Same command as the CI lint job.
lint: vet
	$(GO) run ./cmd/bcast-lint ./...

vet:
	$(GO) vet ./...

# staticcheck/govulncheck are external tools, installed on demand in CI
# (pinned versions, see .github/workflows/ci.yml). Run them locally only if
# already installed; this target fails fast with a hint otherwise.
staticcheck:
	@command -v staticcheck >/dev/null || { echo "staticcheck not installed: go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; exit 1; }
	staticcheck ./...

# bench-smoke mirrors the CI test job's benchmark step: bench/ is its own
# module, so the root `go test ./...` does not compile its adapter; this
# does, then runs three smoke-scale workloads through the real entry point —
# one bound by cut separation, one by the master LP, one that packs every plan.
bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload cold-sep --scale smoke
	bash bench/run.sh --workload cold-lp --scale smoke
	bash bench/run.sh --workload pack-ktree --scale smoke

check: build test lint
