#include "ppml/cot_bank.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::ppml {

void
CotBank::append(const Block *b, size_t n, const BitVec *choice)
{
    blocks.insert(blocks.end(), b, b + n);
    if (choice)
        bits.appendRange(*choice, 0, n);
}

void
CotBank::take(size_t n, std::vector<Block> *out, BitVec *out_bits)
{
    IRONMAN_CHECK(n <= size(), "CotBank: take past the stock");
    if (out_bits)
        out_bits->assignRange(bits, head, n);
    out->resize(n);
    std::copy_n(blocks.data() + head, n, out->data());
    head += n;

    if (head < kCompactMin || head * 2 < blocks.size())
        return;
    blocks.erase(blocks.begin(), blocks.begin() + long(head));
    if (!bits.empty()) {
        BitVec rest;
        rest.assignRange(bits, head, bits.size() - head);
        std::swap(bits, rest);
    }
    head = 0;
}

} // namespace ironman::ppml
