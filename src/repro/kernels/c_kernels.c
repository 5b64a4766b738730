/* Compiled decode kernels for the ``c`` backend (see c_kernels.py).
 *
 * Each decode function returns only a status: REPRO_OK, or a non-zero
 * code that tells the Python wrapper to re-run the reference
 * implementation, which raises the canonical error. Nothing here
 * allocates; the caller passes an output buffer of a size it has already
 * bounded.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define REPRO_OK 0
#define REPRO_CORRUPT 1

/* Bit 7 of a DFA info byte: the transition steps off the code trie. */
#define DFA_DEAD 0x80
#define DFA_COUNT 0x0f

/* Stride-8 Huffman DFA walk.
 *
 * Entry idx = state * 256 + byte of the tables: next[idx] is the state
 * after the byte, info[idx] holds the number of symbols emitted (low 4
 * bits) and the dead flag, emit[idx * 8 ...] the emitted symbols. The
 * symbols of a dead entry precede its dead bit, so they count; nothing
 * after them does. Succeeds once out_len symbols are written.
 */
int repro_huffman_decode(const uint16_t *next, const uint8_t *info,
                         const uint8_t *emit, const uint8_t *payload,
                         size_t nbytes, uint8_t *out, size_t out_len)
{
    size_t produced = 0;
    size_t state = 0;
    for (size_t i = 0; i < nbytes; i++) {
        size_t idx = (state << 8) | payload[i];
        unsigned flags = info[idx];
        size_t count = flags & DFA_COUNT;
        const uint8_t *sym = emit + (idx << 3);
        if (out_len - produced >= 8) {
            memcpy(out + produced, sym, 8);
        } else {
            size_t room = out_len - produced;
            memcpy(out + produced, sym, count < room ? count : room);
        }
        produced += count;
        if (produced >= out_len)
            return REPRO_OK;
        if (flags & DFA_DEAD)
            return REPRO_CORRUPT;
        state = next[idx];
    }
    return REPRO_CORRUPT;
}

/* Snappy preamble: the uncompressed length as a varint of at most five
 * bytes and 32 bits. Returns the length and stores the preamble size in
 * *pos, or returns -1 for anything else (the reference then decides). */
static int64_t snappy_preamble(const uint8_t *src, size_t n, size_t *pos)
{
    uint64_t value = 0;
    for (size_t i = 0; i < n && i < 5; i++) {
        value |= (uint64_t)(src[i] & 0x7f) << (7 * i);
        if (!(src[i] & 0x80)) {
            if (value > 0xffffffffu)
                return -1;
            *pos = i + 1;
            return (int64_t)value;
        }
    }
    return -1;
}

int64_t repro_snappy_length(const uint8_t *src, size_t n)
{
    size_t pos;
    return snappy_preamble(src, n, &pos);
}

/* Single-pass Snappy decode into out[0:expected], where expected is the
 * preamble's length. Every check the reference makes is made here, before
 * any write. */
int repro_snappy_decompress(const uint8_t *src, size_t n, uint8_t *out,
                            size_t expected)
{
    size_t pos = 0;
    if (snappy_preamble(src, n, &pos) != (int64_t)expected)
        return REPRO_CORRUPT;
    size_t op = 0;
    while (pos < n) {
        unsigned tag = src[pos++];
        size_t length;
        size_t offset;
        switch (tag & 3) {
        case 0: { /* literal */
            size_t code = tag >> 2;
            if (code < 60) {
                length = code + 1;
            } else {
                size_t extra = code - 59;
                if (n - pos < extra)
                    return REPRO_CORRUPT;
                length = 0;
                for (size_t k = 0; k < extra; k++)
                    length |= (size_t)src[pos + k] << (8 * k);
                length += 1;
                pos += extra;
            }
            if (n - pos < length || expected - op < length)
                return REPRO_CORRUPT;
            memcpy(out + op, src + pos, length);
            pos += length;
            op += length;
            continue;
        }
        case 1:
            if (pos >= n)
                return REPRO_CORRUPT;
            length = 4 + ((tag >> 2) & 7);
            offset = ((size_t)(tag >> 5) << 8) | src[pos];
            pos += 1;
            break;
        case 2:
            if (n - pos < 2)
                return REPRO_CORRUPT;
            length = (tag >> 2) + 1;
            offset = (size_t)src[pos] | ((size_t)src[pos + 1] << 8);
            pos += 2;
            break;
        default:
            if (n - pos < 4)
                return REPRO_CORRUPT;
            length = (tag >> 2) + 1;
            offset = (size_t)src[pos] | ((size_t)src[pos + 1] << 8)
                   | ((size_t)src[pos + 2] << 16) | ((size_t)src[pos + 3] << 24);
            pos += 4;
            break;
        }
        if (offset == 0 || offset > op || expected - op < length)
            return REPRO_CORRUPT;
        uint8_t *dst = out + op;
        if (offset >= length) {
            memcpy(dst, dst - offset, length);
        } else {
            /* Overlapping: the run repeats with period `offset`. */
            for (size_t k = 0; k < length; k++)
                dst[k] = dst[k - offset];
        }
        op += length;
    }
    return op == expected ? REPRO_OK : REPRO_CORRUPT;
}
