#include "io/bench.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace bg::io {

using aig::Aig;
using aig::Lit;

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
    throw std::runtime_error("bench: line " + std::to_string(line_no) + ": " +
                             why);
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
        ++b;
    }
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

std::string upper(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
    });
    return s;
}

struct GateDef {
    std::string output;
    std::string op;  // upper-cased
    std::vector<std::string> inputs;
    std::size_t line_no = 0;
};

}  // namespace

Aig read_bench(std::istream& in) {
    std::vector<std::string> input_names;
    std::vector<std::string> output_names;
    std::vector<GateDef> gates;

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line = line.substr(0, hash);
        }
        line = trim(line);
        if (line.empty()) {
            continue;
        }
        const auto open = line.find('(');
        const auto close = line.rfind(')');
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            // INPUT(x) / OUTPUT(x)
            if (open == std::string::npos || close == std::string::npos ||
                close < open) {
                fail(line_no, "unparsable line: '" + line + "'");
            }
            const std::string kw = upper(trim(line.substr(0, open)));
            const std::string arg =
                trim(line.substr(open + 1, close - open - 1));
            if (kw == "INPUT") {
                input_names.push_back(arg);
            } else if (kw == "OUTPUT") {
                output_names.push_back(arg);
            } else {
                fail(line_no, "unknown directive: " + kw);
            }
            continue;
        }
        // name = OP(a, b, ...)
        if (open == std::string::npos || close == std::string::npos ||
            close < open || open < eq) {
            fail(line_no, "unparsable gate line: '" + line + "'");
        }
        GateDef g;
        g.line_no = line_no;
        g.output = trim(line.substr(0, eq));
        g.op = upper(trim(line.substr(eq + 1, open - eq - 1)));
        std::string args = line.substr(open + 1, close - open - 1);
        std::istringstream ss(args);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            tok = trim(tok);
            if (!tok.empty()) {
                g.inputs.push_back(tok);
            }
        }
        if (g.op == "DFF" || g.op == "DFFSR" || g.op == "LATCH") {
            fail(line_no, "sequential elements are not supported");
        }
        gates.push_back(std::move(g));
    }

    Aig g;
    std::unordered_map<std::string, Lit> sig;
    for (const auto& name : input_names) {
        if (sig.contains(name)) {
            fail(0, "duplicate input: " + name);
        }
        sig.emplace(name, g.add_pi());
    }

    // Elaborate gates; definitions may appear in any order, so iterate to a
    // fixed point (bounded by the gate count to catch cycles).
    std::vector<bool> done(gates.size(), false);
    std::size_t remaining = gates.size();
    bool progressed = true;
    while (remaining > 0 && progressed) {
        progressed = false;
        for (std::size_t gi = 0; gi < gates.size(); ++gi) {
            if (done[gi]) {
                continue;
            }
            const auto& gd = gates[gi];
            std::vector<Lit> ins;
            ins.reserve(gd.inputs.size());
            bool ready = true;
            for (const auto& nm : gd.inputs) {
                const auto it = sig.find(nm);
                if (it == sig.end()) {
                    ready = false;
                    break;
                }
                ins.push_back(it->second);
            }
            if (!ready) {
                continue;
            }
            Lit out = aig::lit_false;
            const auto need = [&](std::size_t lo, std::size_t hi) {
                if (ins.size() < lo || ins.size() > hi) {
                    fail(gd.line_no, gd.op + " arity out of range");
                }
            };
            if (gd.op == "AND") {
                need(1, 64);
                out = g.and_reduce(ins);
            } else if (gd.op == "NAND") {
                need(1, 64);
                out = aig::lit_not(g.and_reduce(ins));
            } else if (gd.op == "OR") {
                need(1, 64);
                out = g.or_reduce(ins);
            } else if (gd.op == "NOR") {
                need(1, 64);
                out = aig::lit_not(g.or_reduce(ins));
            } else if (gd.op == "XOR") {
                need(1, 64);
                out = ins[0];
                for (std::size_t k = 1; k < ins.size(); ++k) {
                    out = g.xor_(out, ins[k]);
                }
            } else if (gd.op == "XNOR") {
                need(2, 64);
                out = ins[0];
                for (std::size_t k = 1; k < ins.size(); ++k) {
                    out = g.xor_(out, ins[k]);
                }
                out = aig::lit_not(out);
            } else if (gd.op == "NOT") {
                need(1, 1);
                out = aig::lit_not(ins[0]);
            } else if (gd.op == "BUF" || gd.op == "BUFF") {
                need(1, 1);
                out = ins[0];
            } else if (gd.op == "CONST0" || gd.op == "GND") {
                out = aig::lit_false;
            } else if (gd.op == "CONST1" || gd.op == "VDD") {
                out = aig::lit_true;
            } else {
                fail(gd.line_no, "unknown gate type: " + gd.op);
            }
            if (sig.contains(gd.output)) {
                fail(gd.line_no, "signal defined twice: " + gd.output);
            }
            sig.emplace(gd.output, out);
            done[gi] = true;
            --remaining;
            progressed = true;
        }
    }
    if (remaining > 0) {
        fail(0, "undefined signals or combinational cycle in gate list");
    }

    for (const auto& name : output_names) {
        const auto it = sig.find(name);
        if (it == sig.end()) {
            fail(0, "undefined output: " + name);
        }
        g.add_po(it->second);
    }
    return g;
}

Aig read_bench_string(const std::string& text) {
    std::istringstream ss(text);
    return read_bench(ss);
}

Aig read_bench_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("bench: cannot open " + path.string());
    }
    return read_bench(in);
}

void write_bench(const Aig& g_in, std::ostream& out) {
    const Aig g = g_in.compact();
    const auto name_of = [&](aig::Var v) {
        return std::string("n").append(std::to_string(v));
    };
    const auto lit_name = [&](Lit l, std::vector<bool>& inverted_emitted,
                              std::ostream& os) -> std::string {
        const aig::Var v = aig::lit_var(l);
        if (!aig::lit_is_compl(l)) {
            return name_of(v);
        }
        const std::string inv = name_of(v) + "_inv";
        if (!inverted_emitted[v]) {
            os << inv << " = NOT(" << name_of(v) << ")\n";
            inverted_emitted[v] = true;
        }
        return inv;
    };

    out << "# written by BoolGebra\n";
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        out << "INPUT(" << name_of(g.pi(i)) << ")\n";
    }
    for (std::size_t i = 0; i < g.num_pos(); ++i) {
        out << "OUTPUT(po" << i << ")\n";
    }
    // Constant driver, if anything references it.
    bool const_needed = false;
    for (const Lit po : g.pos()) {
        const_needed |= aig::lit_var(po) == 0;
    }
    for (const aig::Var v : g.topo_ands()) {
        const_needed |= aig::lit_var(g.fanin0(v)) == 0;
        const_needed |= aig::lit_var(g.fanin1(v)) == 0;
    }
    std::vector<bool> inverted_emitted(g.num_slots(), false);
    std::ostringstream body;
    if (const_needed) {
        if (g.num_pis() == 0) {
            throw std::runtime_error(
                "bench: cannot express a constant without any input "
                "(the format has no constant primitive)");
        }
        // BENCH has no constant primitive; x AND NOT x is the portable idiom.
        body << "n0 = AND(" << name_of(g.pi(0)) << ", n0_notpi)\n";
        body << "n0_notpi = NOT(" << name_of(g.pi(0)) << ")\n";
    }
    for (const aig::Var v : g.topo_ands()) {
        const std::string a = lit_name(g.fanin0(v), inverted_emitted, body);
        const std::string b = lit_name(g.fanin1(v), inverted_emitted, body);
        body << name_of(v) << " = AND(" << a << ", " << b << ")\n";
    }
    for (std::size_t i = 0; i < g.num_pos(); ++i) {
        const Lit po = g.po(i);
        if (aig::lit_is_compl(po)) {
            body << "po" << i << " = NOT(" << name_of(aig::lit_var(po))
                 << ")\n";
        } else {
            body << "po" << i << " = BUFF(" << name_of(aig::lit_var(po))
                 << ")\n";
        }
    }
    out << body.str();
}

std::string write_bench_string(const Aig& g) {
    std::ostringstream ss;
    write_bench(g, ss);
    return ss.str();
}

void write_bench_file(const Aig& g, const std::filesystem::path& path) {
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("bench: cannot write " + path.string());
    }
    write_bench(g, out);
}

}  // namespace bg::io
