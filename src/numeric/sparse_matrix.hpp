// Sparse square matrix: the one MNA Jacobian store, shared by the scalar
// Newton loop and the batched lockstep engine.
//
// Each row keeps its entries in ascending column order. Every entry starts
// at +0.0 and every stamp is an add, so each (row, col) is its stamps
// summed in call order (a lone -0.0 stamp reads +0.0).
//
// Storage. After a load the entries sit in one flat row-major array with
// row offsets (flat()). A new (row, col), in a load or outside one, first
// moves them out into per-row vectors, one sorted insert per new entry,
// until the next begin_load() or end_load() packs them again.
//
// Stamp tape. A load brackets its stamps with begin_load()/end_load(). The
// first complete load records its (row, col) sequence; a load repeating it
// replays the recorded flat positions, one array add per stamp. A load that
// departs from the tape (a device changing its stamp pattern mid-run)
// searches and inserts from that stamp on: its sums stay exact, the pattern
// grows, end_load() returns false once, and the new sequence becomes the
// tape. A load abandoned before end_load() leaves no partial tape behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numeric/dense_lu.hpp"

namespace softfet::numeric {

class SparseMatrix {
 public:
  struct Entry {
    std::size_t col = 0;
    double value = 0.0;
  };

  SparseMatrix() : SparseMatrix(0) {}
  explicit SparseMatrix(std::size_t n) { reset(n); }

  /// Start over for an n-unknown system: drops the pattern and the tape.
  void reset(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.size() - 1;
  }

  /// Begin one load: zero every value, keep the pattern, and replay the
  /// tape if a complete one is recorded (record one otherwise).
  void begin_load();
  void set_zero_keep_structure() { begin_load(); }

  /// Accumulate `value` at (r, c).
  void add(std::size_t r, std::size_t c, double value) {
    if (replaying_ && cursor_ < tape_.size()) {
      const Stamp& s = tape_[cursor_];
      if (s.row == r && s.col == c) {
        entries_[s.pos].value += value;
        ++cursor_;
        return;
      }
    }
    add_searched(r, c, value);
  }

  /// Finish one load. Returns false when the load departed from the
  /// recorded tape (the batch engine evicts the lane on that).
  [[nodiscard]] bool end_load();

  /// Overwrite the entry at (r, c). Not a stamp: it is never taped.
  void set(std::size_t r, std::size_t c, double value) {
    entry(r, c).value = value;
  }

  [[nodiscard]] double get(std::size_t r, std::size_t c) const;

  /// Row r's entries in ascending column order.
  [[nodiscard]] std::span<const Entry> row(std::size_t r) const {
    if (!flat_) return rows_[r];
    return {entries_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// True when every entry sits in entries(), row r at
  /// [offsets()[r], offsets()[r + 1]); false while stamps wait in rows.
  [[nodiscard]] bool flat() const noexcept { return flat_; }
  [[nodiscard]] std::span<const Entry> entries() const { return entries_; }
  [[nodiscard]] std::span<const std::size_t> offsets() const {
    return offsets_;
  }

  [[nodiscard]] std::size_t nonzeros() const noexcept;

  [[nodiscard]] DenseMatrix to_dense() const;

  /// Densify into `out`, reusing its storage (resize + zero + scatter).
  void to_dense_into(DenseMatrix& out) const;

  /// y = A * x.
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  /// One recorded stamp: its (row, col) and the entry's flat position.
  struct Stamp {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    std::uint32_t pos = 0;
  };

  void add_searched(std::size_t r, std::size_t c, double value);
  /// The entry at (r, c), inserted at +0.0 if absent.
  Entry& entry(std::size_t r, std::size_t c);
  /// Move the flat entries out into per-row vectors, and back.
  void unpack();
  void pack();

  std::vector<Entry> entries_;            // flat: every row, in row order
  std::vector<std::size_t> offsets_;      // n + 1 row offsets into entries_
  std::vector<std::vector<Entry>> rows_;  // unpacked: one vector per row
  bool flat_ = true;
  std::vector<Stamp> tape_;
  std::size_t cursor_ = 0;  // next tape stamp of the load in flight
  bool taped_ = false;      // tape_ holds a complete load
  bool replaying_ = false;  // the load in flight follows tape_
  bool recording_ = false;  // the load in flight appends to tape_
  bool departed_ = false;   // the load in flight left tape_
};

}  // namespace softfet::numeric
