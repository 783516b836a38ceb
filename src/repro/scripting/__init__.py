"""GSL scripting substrate: language, interpreter, restrictions, cost
analyzer, and batch lowering."""

from repro.scripting.analyzer import (
    AnalysisReport,
    CostAnalyzer,
    Finding,
    analyze_source,
)
from repro.scripting.batch_lowering import (
    LoweredLoop,
    LoweredProgram,
    lower_script,
)
from repro.scripting.interpreter import (
    CompiledScript,
    EntityProxy,
    Interpreter,
)
from repro.scripting.lexer import Lexer, tokenize
from repro.scripting.parser import Parser, parse
from repro.scripting.restrictions import (
    HANDLERS_ONLY,
    NO_ITERATION,
    NO_WHILE,
    PROFILES,
    UNRESTRICTED,
    LanguageProfile,
    check_script,
    find_recursion,
)
from repro.scripting.script_system import ScriptSystem, add_script_system
from repro.scripting.stdlib import build_stdlib

__all__ = [
    "AnalysisReport",
    "CostAnalyzer",
    "Finding",
    "analyze_source",
    "LoweredLoop",
    "LoweredProgram",
    "lower_script",
    "CompiledScript",
    "EntityProxy",
    "Interpreter",
    "Lexer",
    "tokenize",
    "Parser",
    "parse",
    "HANDLERS_ONLY",
    "NO_ITERATION",
    "NO_WHILE",
    "PROFILES",
    "UNRESTRICTED",
    "LanguageProfile",
    "check_script",
    "find_recursion",
    "ScriptSystem",
    "add_script_system",
    "build_stdlib",
]
