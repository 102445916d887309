"""Workload generators: grep, random-read, Postmark, micro-benchmarks."""

from .._lazy import lazy_exports

__all__ = [
    "CompileConfig", "CompileResult", "compile_body", "run_compile",
    "GrepResult", "grep_body", "run_grep", "run_parallel_grep",
    "CLONE_BODY_COST", "CLONE_LOCKED_COST", "CloneStress",
    "run_zero_byte_reads", "zero_byte_read_body",
    "PostmarkConfig", "PostmarkReport", "run_postmark",
    "RandomReadConfig", "random_read_body", "run_random_read",
    "PROFILE_LAYERS", "WORKLOAD_NAMES", "collect_profiles",
    "run_named_workload",
    "TreeStats", "build_source_tree",
    "Trace", "TraceRecord", "TraceRecorder", "replay_trace",
    "WebServerConfig", "WebServerResult", "build_document_set",
    "run_webserver",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".compile": ("CompileConfig", "CompileResult", "compile_body",
                 "run_compile"),
    ".grep": ("GrepResult", "grep_body", "run_grep", "run_parallel_grep"),
    ".microbench": ("CLONE_BODY_COST", "CLONE_LOCKED_COST", "CloneStress",
                    "run_zero_byte_reads", "zero_byte_read_body"),
    ".postmark": ("PostmarkConfig", "PostmarkReport", "run_postmark"),
    ".randomread": ("RandomReadConfig", "random_read_body", "run_random_read"),
    ".runner": ("PROFILE_LAYERS", "WORKLOAD_NAMES", "collect_profiles",
                "run_named_workload"),
    ".sourcetree": ("TreeStats", "build_source_tree"),
    ".trace": ("Trace", "TraceRecord", "TraceRecorder", "replay_trace"),
    ".webserver": ("WebServerConfig", "WebServerResult", "build_document_set",
                   "run_webserver"),
})
