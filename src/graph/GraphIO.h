//===- graph/GraphIO.h - Textual computation-graph format -------*- C++ -*-===//
///
/// \file
/// A line-oriented textual serialization of computation graphs, so that
/// models can be shipped to / produced by the pypmc driver and diffed in
/// review:
///
///   # comment
///   n0 = Input[uid=0]() : f32[8x128]
///   n1 = Weight[uid=1]() : f32[128x64]
///   n2 = MatMul(n0, n1) : f32[8x64]
///   output n2
///
/// One node per line: `<name> = <Op>[k=v,…](<inputs>) : <dtype>[<dims>]`,
/// inputs referencing earlier names. Scalars print as `f32[]`. The writer
/// emits live nodes in topological order; the reader checks arities,
/// declares unknown operators with the observed arity, and reports errors
/// with line:column locations.
///
/// Lexical rules. Blanks are ' ', '\t', '\r', '\v' and '\f' ('\n' ends a
/// line, so "\r\n" text reads like "\n" text); names, operators, keys and
/// dtypes are `[A-Za-z0-9_]+`. The classes are fixed ASCII, independent of
/// the process locale.
///
/// Names. Any identifier names a node, and distinct spellings are distinct
/// names: `n1` and `n01` are two nodes. The writer's canonical form `n<k>`
/// (no leading zero except `n0`, at most 9 digits, k below the text's
/// length) resolves through a dense table; every other spelling through a
/// hash map keyed by its text.
///
/// Integers (attribute values and dimensions) are `[+-]?[0-9]+` and must
/// fit an int64: a bare sign and an out-of-range value are errors
/// (`malformed attribute`, `expected dimension`), never 0 or a clamp.
/// Dimensions must also be non-negative.
///
/// Leaf identity. A leaf (a node with no inputs) that carries a `uid`
/// attribute must not reuse the uid of an earlier leaf: the term view
/// would otherwise conflate two tensors (DESIGN.md "Leaf identity"). The
/// error is located at the second `uid` and names the first one's line.
/// Leaves without a uid are not checked.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_GRAPH_GRAPHIO_H
#define PYPM_GRAPH_GRAPHIO_H

#include "graph/Graph.h"

#include <memory>
#include <string>

namespace pypm::graph {

/// Renders the live subgraph as text (inverse of parseGraphText).
std::string writeGraphText(const Graph &G);

/// Parses the textual format. Returns nullptr and reports line-located
/// diagnostics on malformed input. Unknown operators are declared in
/// \p Sig with the observed arity.
std::unique_ptr<Graph> parseGraphText(std::string_view Text,
                                      term::Signature &Sig,
                                      DiagnosticEngine &Diags);

} // namespace pypm::graph

#endif // PYPM_GRAPH_GRAPHIO_H
