#include "io/dot.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

namespace bg::io {

using aig::Aig;
using aig::Lit;
using aig::Var;

void write_dot(const Aig& g, std::ostream& out) {
    out << "digraph aig {\n"
        << "  rankdir=BT;\n"
        << "  node [fontname=\"Helvetica\"];\n";
    out << "  const0 [label=\"0\", shape=box, style=dotted];\n";
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        out << "  n" << g.pi(i) << " [label=\"x" << i
            << "\", shape=box];\n";
    }
    const auto node_name = [&](Var v) {
        return v == 0 ? std::string("const0")
                      : std::string("n").append(std::to_string(v));
    };
    for (const Var v : g.topo_ands()) {
        out << "  n" << v << " [label=\"" << v << "\", shape=circle];\n";
        for (const aig::NodeRef f : g.fanin_refs(v)) {
            out << "  " << node_name(f.index()) << " -> n" << v;
            if (f.complemented()) {
                out << " [style=dashed]";
            }
            out << ";\n";
        }
    }
    for (std::size_t i = 0; i < g.num_pos(); ++i) {
        const Lit po = g.po(i);
        out << "  po" << i << " [label=\"y" << i
            << "\", shape=invtriangle];\n";
        out << "  " << node_name(aig::lit_var(po)) << " -> po" << i;
        if (aig::lit_is_compl(po)) {
            out << " [style=dashed]";
        }
        out << ";\n";
    }
    out << "}\n";
}

std::string write_dot_string(const Aig& g) {
    std::ostringstream ss;
    write_dot(g, ss);
    return ss.str();
}

void write_dot_file(const Aig& g, const std::filesystem::path& path) {
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("dot: cannot write " + path.string());
    }
    write_dot(g, out);
}

}  // namespace bg::io
