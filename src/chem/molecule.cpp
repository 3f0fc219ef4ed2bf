#include "chem/molecule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace df::chem {

int32_t Molecule::add_atom(Element e, Vec3 pos, int8_t charge, bool aromatic) {
  atoms_.push_back(Atom{e, pos, charge, aromatic, 0});
  adjacency_.emplace_back();
  return static_cast<int32_t>(atoms_.size() - 1);
}

void Molecule::add_bond(int32_t a, int32_t b, int8_t order) {
  if (a == b || a < 0 || b < 0 || static_cast<size_t>(a) >= atoms_.size() ||
      static_cast<size_t>(b) >= atoms_.size()) {
    throw std::invalid_argument("Molecule::add_bond: bad atom indices");
  }
  bonds_.push_back(Bond{a, b, order});
  adjacency_[static_cast<size_t>(a)].push_back(b);
  adjacency_[static_cast<size_t>(b)].push_back(a);
}

int Molecule::bond_order_sum(int32_t atom) const {
  int s = 0;
  for (const Bond& b : bonds_) {
    if (b.a == atom || b.b == atom) s += b.order;
  }
  return s;
}

float Molecule::molecular_weight() const {
  float mw = 0.0f;
  for (const Atom& a : atoms_) {
    mw += element_info(a.element).mass;
    mw += static_cast<float>(a.implicit_h) * element_info(Element::H).mass;
  }
  return mw;
}

float Molecule::logp_proxy() const {
  float v = 0.0f;
  for (const Atom& a : atoms_) {
    v += element_info(a.element).hydrophobic ? 1.0f : -0.5f;
  }
  return v * 0.2f;
}

float Molecule::tpsa_proxy() const {
  float v = 0.0f;
  for (const Atom& a : atoms_) {
    if (a.element == Element::N) v += 12.0f;
    if (a.element == Element::O) v += 17.0f;
    if (a.element == Element::S) v += 8.0f;
  }
  return v;
}

int Molecule::num_rotatable_bonds() const {
  // Single, acyclic bonds between two non-terminal heavy atoms. A bond is
  // acyclic iff its atoms fall apart without it (a bridge), found for every
  // bond at once by one iterative low-link DFS: tree edge parent->v is a
  // bridge iff nothing in v's subtree reaches back to the parent or above.
  // Each atom skips every edge back to its DFS parent, so parallel bonds
  // between one atom pair count as a single edge.
  constexpr size_t kNone = static_cast<size_t>(-1);
  const size_t n = atoms_.size();
  std::vector<size_t> disc(n, kNone), low(n, 0), parent(n, kNone);
  std::vector<std::pair<size_t, size_t>> stack;  // (atom, next neighbor slot)
  stack.reserve(n);
  size_t clock = 0;
  for (size_t root = 0; root < n; ++root) {
    if (disc[root] != kNone) continue;
    disc[root] = low[root] = clock++;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const size_t v = stack.back().first;
      const std::vector<int32_t>& nbrs = adjacency_[v];
      const size_t slot = stack.back().second++;
      if (slot == nbrs.size()) {
        stack.pop_back();
        if (parent[v] != kNone) low[parent[v]] = std::min(low[parent[v]], low[v]);
        continue;
      }
      const size_t u = static_cast<size_t>(nbrs[slot]);
      if (u == parent[v]) continue;
      if (disc[u] == kNone) {
        parent[u] = v;
        disc[u] = low[u] = clock++;
        stack.emplace_back(u, 0);
      } else {
        low[v] = std::min(low[v], disc[u]);
      }
    }
  }
  const auto is_bridge = [&](size_t a, size_t b) {
    if (parent[a] == b) std::swap(a, b);
    return parent[b] == a && low[b] > disc[a];
  };
  int count = 0;
  for (const Bond& b : bonds_) {
    if (b.order != 1) continue;
    if (degree(b.a) < 2 || degree(b.b) < 2) continue;
    if (is_bridge(static_cast<size_t>(b.a), static_cast<size_t>(b.b))) ++count;
  }
  return count;
}

int Molecule::num_rings() const {
  const int components = static_cast<int>(connected_components().size());
  return std::max(0, static_cast<int>(bonds_.size()) - static_cast<int>(atoms_.size()) + components);
}

int Molecule::num_hbond_donors() const {
  int n = 0;
  for (const Atom& a : atoms_) {
    if (element_info(a.element).hbond_donor_heavy && a.implicit_h > 0) ++n;
  }
  return n;
}

int Molecule::num_hbond_acceptors() const {
  int n = 0;
  for (const Atom& a : atoms_) {
    if (element_info(a.element).hbond_acceptor) ++n;
  }
  return n;
}

Vec3 Molecule::centroid() const {
  Vec3 c{};
  if (atoms_.empty()) return c;
  for (const Atom& a : atoms_) c += a.pos;
  return c * (1.0f / static_cast<float>(atoms_.size()));
}

void Molecule::translate(const Vec3& d) {
  for (Atom& a : atoms_) a.pos += d;
}

void Molecule::rotate(const Vec3& center, const Vec3& axis, float theta) {
  const Vec3 k = axis.normalized();
  for (Atom& a : atoms_) {
    a.pos = center + core::rotate_axis_angle(a.pos - center, k, theta);
  }
}

float Molecule::radius_of_gyration() const {
  const Vec3 c = centroid();
  float m = 0.0f;
  for (const Atom& a : atoms_) m = std::max(m, a.pos.dist(c));
  return m;
}

std::vector<std::vector<int32_t>> Molecule::connected_components() const {
  std::vector<int32_t> comp(atoms_.size(), -1);
  std::vector<std::vector<int32_t>> out;
  for (size_t start = 0; start < atoms_.size(); ++start) {
    if (comp[start] != -1) continue;
    const int32_t id = static_cast<int32_t>(out.size());
    out.emplace_back();
    std::vector<int32_t> stack{static_cast<int32_t>(start)};
    comp[start] = id;
    while (!stack.empty()) {
      const int32_t v = stack.back();
      stack.pop_back();
      out[static_cast<size_t>(id)].push_back(v);
      for (int32_t u : adjacency_[static_cast<size_t>(v)]) {
        if (comp[static_cast<size_t>(u)] == -1) {
          comp[static_cast<size_t>(u)] = id;
          stack.push_back(u);
        }
      }
    }
  }
  return out;
}

Molecule Molecule::subset(const std::vector<int32_t>& atom_indices) const {
  Molecule m;
  std::vector<int32_t> remap(atoms_.size(), -1);
  for (int32_t idx : atom_indices) {
    remap[static_cast<size_t>(idx)] =
        m.add_atom(atoms_[static_cast<size_t>(idx)].element, atoms_[static_cast<size_t>(idx)].pos,
                   atoms_[static_cast<size_t>(idx)].formal_charge,
                   atoms_[static_cast<size_t>(idx)].aromatic);
    m.atoms_.back().implicit_h = atoms_[static_cast<size_t>(idx)].implicit_h;
  }
  for (const Bond& b : bonds_) {
    const int32_t na = remap[static_cast<size_t>(b.a)], nb = remap[static_cast<size_t>(b.b)];
    if (na >= 0 && nb >= 0) m.add_bond(na, nb, b.order);
  }
  return m;
}

bool Molecule::has_metal() const {
  return std::any_of(atoms_.begin(), atoms_.end(),
                     [](const Atom& a) { return a.element == Element::Metal; });
}

float pose_rmsd(const Molecule& a, const Molecule& b) {
  if (a.num_atoms() != b.num_atoms()) {
    throw std::invalid_argument("pose_rmsd: atom count mismatch");
  }
  double acc = 0.0;
  for (size_t i = 0; i < a.num_atoms(); ++i) {
    const Vec3 d = a.atoms()[i].pos - b.atoms()[i].pos;
    acc += static_cast<double>(d.norm2());
  }
  return static_cast<float>(std::sqrt(acc / static_cast<double>(a.num_atoms())));
}

Molecule generate_molecule(const MoleculeGenConfig& cfg, core::Rng& rng) {
  Molecule m;
  const int target = static_cast<int>(rng.randint(cfg.min_heavy_atoms, cfg.max_heavy_atoms));

  auto pick_element = [&]() {
    if (rng.uniform() < cfg.hetero_probability) {
      if (rng.uniform() < cfg.halogen_probability / cfg.hetero_probability) {
        static const Element kHal[] = {Element::F, Element::Cl, Element::Br};
        return kHal[rng.pick(3)];
      }
      static const Element kHet[] = {Element::N, Element::O, Element::S, Element::N, Element::O};
      return kHet[rng.pick(5)];
    }
    return Element::C;
  };

  m.add_atom(Element::C);
  while (static_cast<int>(m.num_atoms()) < target) {
    const Element e = pick_element();
    const int maxval = element_info(e).max_valence;
    // Attach to a random existing atom with spare valence.
    std::vector<int32_t> open;
    for (size_t i = 0; i < m.num_atoms(); ++i) {
      const int spare = element_info(m.atoms()[i].element).max_valence -
                        m.bond_order_sum(static_cast<int32_t>(i));
      if (spare >= 1) open.push_back(static_cast<int32_t>(i));
    }
    if (open.empty()) break;
    const int32_t parent = open[rng.pick(open.size())];
    const int32_t idx = m.add_atom(e);
    // Occasional double bond when both partners can afford it.
    int8_t order = 1;
    if (maxval >= 2 &&
        element_info(m.atoms()[static_cast<size_t>(parent)].element).max_valence -
                m.bond_order_sum(parent) >= 2 &&
        rng.uniform() < 0.15f) {
      order = 2;
    }
    m.add_bond(parent, idx, order);
    // Ring closure: bond to another open atom that is not the parent.
    if (rng.uniform() < cfg.ring_probability && maxval - m.bond_order_sum(idx) >= 1) {
      std::vector<int32_t> candidates;
      for (int32_t o : open) {
        if (o == parent) continue;
        const int spare = element_info(m.atoms()[static_cast<size_t>(o)].element).max_valence -
                          m.bond_order_sum(o);
        if (spare >= 1) candidates.push_back(o);
      }
      if (!candidates.empty()) {
        m.add_bond(candidates[rng.pick(candidates.size())], idx, 1);
      }
    }
    if (rng.uniform() < cfg.charge_probability) {
      m.atoms().back().formal_charge = rng.bernoulli(0.5) ? 1 : -1;
    }
  }

  // Fill implicit hydrogens from remaining valence.
  for (size_t i = 0; i < m.num_atoms(); ++i) {
    const int spare = element_info(m.atoms()[i].element).max_valence -
                      m.bond_order_sum(static_cast<int32_t>(i));
    m.atoms()[i].implicit_h = static_cast<int8_t>(std::max(0, spare));
  }

  // Optional salt fragment (disconnected Cl- style counter-ion).
  if (rng.uniform() < cfg.salt_probability) {
    const int32_t s = m.add_atom(Element::Cl);
    m.atoms()[static_cast<size_t>(s)].formal_charge = -1;
  }
  // Optional metal contamination.
  if (rng.uniform() < cfg.metal_probability) {
    m.add_atom(Element::Metal);
  }
  return m;
}

}  // namespace df::chem
