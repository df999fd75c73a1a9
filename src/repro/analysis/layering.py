"""The declared package-dependency DAG enforced by rule R002.

Nodes are the top-level sub-packages of ``repro`` (plus the loose
top-level modules, grouped where they form one conceptual layer).
``ALLOWED_DEPENDENCIES`` lists, for every node, the set of *other*
nodes it may import from; imports within a node are always allowed.

Two deliberate groupings keep the declaration acyclic without lying
about the code:

* ``repro.parsing`` is grouped with ``repro.dialect`` — the tokenizer
  and the dialect model are mutually recursive by design (see
  ``docs/architecture.md``, "the one deliberate wrinkle").
* ``repro.cli`` / ``repro.__main__`` / the ``repro`` package root form
  the ``app`` node: the composition root that is allowed to import
  everything and wires cross-layer defaults (e.g. registering the
  random forest as the default Strudel classifier so that ``core``
  never imports ``ml``).

The declaration itself is validated: :func:`check_declared_dag`
raises if the allowed-dependency relation has a cycle, and a unit
test pins that.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Longest-prefix map from module prefix to layering node.
#:
#: ``repro.perf`` is split in two: the pool and parallel helpers form
#: the low-level ``perf`` node (below ``ml``, so the forest fit can fan
#: out), while ``repro.perf.engine`` — which drives the whole pipeline
#: — is its own ``perf.engine`` node above ``core``.  The
#: longest-prefix lookup makes the split exact.
NODE_BY_PREFIX: dict[str, str] = {
    "repro.util": "util",
    "repro.errors": "errors",
    "repro.obs": "obs",
    "repro.types": "types",
    "repro.parsing": "dialect",
    "repro.dialect": "dialect",
    # The hardened ingestion stage is declared explicitly: it is the
    # single entry path every reader routes through (encoding
    # resolution, strict/lenient repair policy, BOM stripping), but it
    # is io-internal infrastructure, not a new layer — it imports only
    # dialect/errors/types, and io.reader sits directly on top of it.
    "repro.io.ingest": "io",
    # The source-adapter layer (directories, zip/tar archives, NDJSON,
    # XML→tabular) sits *in front of* the ingest front door: adapters
    # enumerate containers into (bytes, provenance) payloads and every
    # payload still routes through ``io.ingest``.  It is its own node
    # above ``io`` — the crawl/sweep surfaces (cli, serve, fuzz, the
    # corpus engine) consume it, while nothing inside ``io`` may
    # import it.
    "repro.io.adapters": "io.adapters",
    "repro.io": "io",
    # The corpus engine drives whole sweeps through the fitted
    # pipeline, so unlike the rest of ``repro.perf`` it must sit
    # *above* ``core`` and ``io`` — it is its own node, importable by
    # eval/serve/app, while ``perf.pool`` stays in the low ``perf``
    # node that ``core`` never imports.
    "repro.perf.engine": "perf.engine",
    "repro.perf": "perf",
    # The columnar TableProfile is declared explicitly: it sits at the
    # *bottom* of core (datatypes/keywords below it, every extractor
    # above it) but cannot be its own node — it imports core.datatypes
    # while core.line_features imports it, so a split would cut the
    # core node in half.  The explicit entry documents that the
    # profile is core-internal infrastructure, not a new layer.
    "repro.core.profile": "core",
    "repro.core": "core",
    # Compiled forest inference is declared explicitly for the same
    # reason as the profile above: it is ml-internal infrastructure
    # (ml.forest compiles into it, ml.persistence stores its tensors)
    # that sits below the estimators, not a new layer.
    "repro.ml.compiled": "ml",
    "repro.ml": "ml",
    "repro.baselines": "baselines",
    "repro.datagen": "datagen",
    "repro.eval": "eval",
    "repro.fuzz": "fuzz",
    "repro.analysis": "analysis",
    # The long-lived classification service: an asyncio front end and
    # a replayable dead-letter queue over a standing ``perf.engine``
    # corpus engine.  Above ``perf.engine`` (it owns one) and below
    # ``app`` (the CLI hosts it).
    "repro.serve": "serve",
    "repro.cli": "app",
    "repro.__main__": "app",
    "repro": "app",
}

#: node -> nodes it may import from (besides itself).
ALLOWED_DEPENDENCIES: dict[str, frozenset[str]] = {
    "util": frozenset(),
    "errors": frozenset(),
    # Observability is near-bottom infrastructure: every layer that
    # does work (io, perf, core, ml, eval) may emit spans and metrics
    # into it, so it may depend on almost nothing itself.
    "obs": frozenset({"errors", "util"}),
    "types": frozenset({"errors"}),
    "perf": frozenset({"errors", "obs", "types", "util"}),
    "dialect": frozenset({"errors", "types", "util"}),
    "io": frozenset({"dialect", "errors", "obs", "types", "util"}),
    # Source adapters stand on the ingest front door (``io``) and the
    # observability registries; they never touch core/ml — their whole
    # output is (bytes, provenance) payloads for ingest.
    "io.adapters": frozenset(
        {"dialect", "errors", "io", "obs", "types", "util"}
    ),
    "core": frozenset(
        {"dialect", "errors", "io", "obs", "types", "util"}
    ),
    # The persistent-worker corpus engine: pools and the sweep cache
    # from ``perf``, the pipeline from ``core``, ingestion policy from
    # ``io``, and ``io.adapters`` to enumerate swept paths (archives
    # expand into members).  ``ml`` is *not* a dependency — the engine
    # fingerprints models through the classifier protocol, never by
    # importing the forest.
    "perf.engine": frozenset(
        {"core", "dialect", "errors", "io", "io.adapters", "obs",
         "perf", "types", "util"}
    ),
    "ml": frozenset(
        {"core", "dialect", "errors", "io", "obs", "perf", "types",
         "util"}
    ),
    "baselines": frozenset(
        {"core", "dialect", "errors", "io", "ml", "types", "util"}
    ),
    "datagen": frozenset(
        {"dialect", "errors", "io", "types", "util"}
    ),
    "eval": frozenset(
        {
            "baselines", "core", "datagen", "dialect", "errors", "io",
            "ml", "obs", "types", "util",
        }
    ),
    # The service shell needs the engine it wraps and the layers the
    # engine already stands on; notably *not* ``ml`` (models arrive
    # fitted, through the classifier protocol) and not ``datagen`` /
    # ``eval`` (serving is a production surface, not an experiment).
    "serve": frozenset(
        {"core", "dialect", "errors", "io", "io.adapters", "obs",
         "perf", "perf.engine", "types", "util"}
    ),
    # The ingestion fuzz harness mutates datagen corpora at the byte
    # level and verifies strict/lenient feature parity through the
    # core extractors, so it sits above both — it drives lower layers
    # end to end without anything importing it but app.
    "fuzz": frozenset(
        {"core", "datagen", "dialect", "errors", "io", "io.adapters",
         "obs", "perf", "types", "util"}
    ),
    "analysis": frozenset({"errors", "util"}),
    "app": frozenset(
        {
            "analysis", "baselines", "core", "datagen", "dialect",
            "errors", "eval", "fuzz", "io", "io.adapters", "ml", "obs",
            "perf", "perf.engine", "serve", "types", "util",
        }
    ),
}


def node_for_module(module: str) -> str | None:
    """Longest-prefix lookup of the layering node for a dotted module.

    Returns ``None`` for modules outside the declared universe (third
    party, stdlib, or fixture code not under ``repro``).
    """
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        prefix = ".".join(parts[:end])
        if prefix in NODE_BY_PREFIX:
            return NODE_BY_PREFIX[prefix]
    return None


def check_declared_dag(
    allowed: dict[str, frozenset[str]] | None = None,
) -> list[str]:
    """Topologically sort the declared graph; raise on any cycle.

    Returns one valid bottom-up ordering of the nodes, which the docs
    generator uses to render the layering table.
    """
    graph = dict(ALLOWED_DEPENDENCIES if allowed is None else allowed)
    for node, deps in graph.items():
        unknown = deps - graph.keys()
        if unknown:
            raise ConfigurationError(
                f"layer {node!r} depends on undeclared {sorted(unknown)}"
            )
    order: list[str] = []
    placed: set[str] = set()
    remaining = set(graph)
    while remaining:
        ready = sorted(
            node for node in remaining if graph[node] <= placed
        )
        if not ready:
            raise ConfigurationError(
                f"dependency cycle among layers {sorted(remaining)}"
            )
        order.extend(ready)
        placed.update(ready)
        remaining.difference_update(ready)
    return order


# Fail fast: an inconsistent declaration should break at import, not
# silently let R002 pass vacuously.
check_declared_dag()
