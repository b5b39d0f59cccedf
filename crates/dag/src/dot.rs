//! Graphviz (DOT) export.
//!
//! Debug/visualization aid: render a DAG (optionally highlighting the
//! offloaded node and a node set such as `G_par`) as a `digraph` that can be
//! piped into `dot -Tpng`.

use core::fmt::Write as _;

use crate::{BitSet, Dag, NodeId};

/// Options controlling [`to_dot`].
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Graph name in the `digraph <name> { … }` header (sanitized).
    pub name: String,
    /// A node rendered as a doubly-circled accelerator node (`v_off`).
    pub offloaded: Option<NodeId>,
    /// A node rendered as a red square (`v_sync`).
    pub sync: Option<NodeId>,
    /// Nodes surrounded by a dashed cluster (`G_par`).
    pub highlight: Option<BitSet>,
}

impl DotOptions {
    /// Creates default options with a graph name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        DotOptions {
            name: name.into(),
            ..DotOptions::default()
        }
    }
}

fn node_display(dag: &Dag, v: NodeId) -> String {
    let label = dag.label(v);
    if label.is_empty() {
        format!("{v} ({})", dag.wcet(v))
    } else {
        format!("{label} ({})", dag.wcet(v))
    }
}

/// Renders `dag` as a Graphviz `digraph`.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, dot};
///
/// let mut b = DagBuilder::new();
/// let v1 = b.node("a", Ticks::new(2));
/// let v2 = b.node("b", Ticks::new(3));
/// b.edge(v1, v2)?;
/// let dag = b.build()?;
/// let text = dot::to_dot(&dag, &dot::DotOptions::named("demo"));
/// assert!(text.starts_with("digraph demo {"));
/// assert!(text.contains("n0 -> n1"));
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[must_use]
pub fn to_dot(dag: &Dag, options: &DotOptions) -> String {
    let mut out = String::new();
    let name: String = options
        .name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let name = if name.is_empty() {
        "dag".to_owned()
    } else {
        name
    };
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=circle, fontsize=10];");

    let in_cluster = |v: NodeId| options.highlight.as_ref().is_some_and(|h| h.contains(v));

    if options.highlight.is_some() {
        let _ = writeln!(out, "  subgraph cluster_par {{");
        let _ = writeln!(out, "    label=\"G_par\"; style=dashed; color=blue;");
        for v in dag.node_ids().filter(|&v| in_cluster(v)) {
            let _ = writeln!(out, "    {v} [label=\"{}\"];", node_display(dag, v));
        }
        let _ = writeln!(out, "  }}");
    }

    for v in dag.node_ids().filter(|&v| !in_cluster(v)) {
        let mut attrs = format!("label=\"{}\"", node_display(dag, v));
        if options.offloaded == Some(v) {
            attrs.push_str(", shape=doublecircle, color=darkgreen");
        }
        if options.sync == Some(v) {
            attrs.push_str(", shape=square, color=red");
        }
        let _ = writeln!(out, "  {v} [{attrs}];");
    }
    for (f, t) in dag.edges() {
        let _ = writeln!(out, "  {f} -> {t};");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    fn sample() -> (Dag, [NodeId; 3]) {
        let mut builder = DagBuilder::new();
        let a = builder.node("start", Ticks::new(1));
        let b = builder.unlabeled_node(Ticks::new(2));
        let c = builder.node("end", Ticks::new(3));
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        let dag = builder.freeze();
        (dag, [a, b, c])
    }

    #[test]
    fn renders_nodes_and_edges() {
        let (dag, _) = sample();
        let text = to_dot(&dag, &DotOptions::named("t"));
        assert!(text.contains("digraph t {"));
        assert!(text.contains("n0 [label=\"start (1)\"]"));
        assert!(text.contains("n1 [label=\"n1 (2)\"]")); // unlabeled fallback
        assert!(text.contains("n0 -> n1;"));
        assert!(text.contains("n1 -> n2;"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn offloaded_and_sync_are_styled() {
        let (dag, [_, b, c]) = sample();
        let mut opts = DotOptions::named("t");
        opts.offloaded = Some(b);
        opts.sync = Some(c);
        let text = to_dot(&dag, &opts);
        assert!(text.contains("doublecircle"));
        assert!(text.contains("shape=square, color=red"));
    }

    #[test]
    fn highlight_cluster_contains_nodes() {
        let (dag, [_, b, _]) = sample();
        let mut set = BitSet::new(3);
        set.insert(b);
        let mut opts = DotOptions::named("t");
        opts.highlight = Some(set);
        let text = to_dot(&dag, &opts);
        assert!(text.contains("cluster_par"));
        let cluster_start = text.find("cluster_par").unwrap();
        let cluster_end = text[cluster_start..].find('}').unwrap() + cluster_start;
        assert!(text[cluster_start..cluster_end].contains("n1 "));
    }

    #[test]
    fn invalid_graph_name_is_sanitized() {
        let (dag, _) = sample();
        let text = to_dot(&dag, &DotOptions::named("my graph/7"));
        assert!(text.starts_with("digraph my_graph_7 {"));
        let empty = to_dot(&dag, &DotOptions::default());
        assert!(empty.starts_with("digraph dag {"));
    }
}
