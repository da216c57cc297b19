/**
 * @file
 * pri_sweepd wire protocol: length-prefixed text frames over a
 * SOCK_STREAM unix-domain socket.
 *
 * Every frame is a 4-byte little-endian payload length followed by
 * that many bytes of UTF-8 text. The first line of the payload is
 * the verb (plus space-separated arguments); subsequent lines carry
 * records in the audited sim/result_codec.hh formats.
 *
 * Client -> daemon:
 *   SUBMIT            followed by one PRIP3 params line per point.
 *   STATUS            human-readable daemon state.
 *   STATS             machine-readable "key value" counter lines.
 *
 * Daemon -> client (streamed per SUBMIT, in completion order):
 *   ACK <n>                 SUBMIT received, n points parsed off the
 *                           wire; sent before any resolution so
 *                           clients can bound their handshake wait.
 *   RESULT <idx> <cached>   followed by the point's PRIJ3 line.
 *                           idx = 0-based position in the SUBMIT;
 *                           cached = 1 when served from the store
 *                           without simulating.
 *   ERROR <idx> <stalled>   followed by the failure message.
 *   DONE <hits> <misses>    all points of the SUBMIT settled.
 *   OK                      followed by STATUS/STATS body.
 *
 * Daemon -> worker (over the per-worker socketpair):
 *   JOB <crash> <timeoutMs>  followed by one PRIP3 line. crash = 1
 *                            tells the worker to SIGKILL itself on
 *                            receipt (the --inject-fault drill).
 *   QUIT                     clean worker shutdown.
 * Worker -> daemon:
 *   RES                      followed by the PRIJ3 result line.
 *   ERR <stalled>            followed by the failure message.
 */

#ifndef PRI_SWEEPD_PROTOCOL_HH
#define PRI_SWEEPD_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace pri::sweepd
{

/** Upper bound on a frame payload; anything larger is treated as a
 *  protocol error (a stats report is tens of KB, never this). */
constexpr uint32_t kMaxFrame = 64u << 20;

/**
 * Write one frame (4-byte LE length + payload) to @p fd, retrying
 * short writes. Returns false on any error (including EPIPE from a
 * vanished peer — writes never raise SIGPIPE).
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Read one frame from @p fd into @p payload, retrying short reads.
 * Returns false on EOF, error, or an over-limit length prefix.
 */
bool readFrame(int fd, std::string &payload);

/**
 * Split @p payload into its verb line and body: the verb line is
 * everything before the first '\n' (or the whole payload), the body
 * everything after it.
 */
void splitVerb(const std::string &payload, std::string &verb_line,
               std::string &body);

} // namespace pri::sweepd

#endif // PRI_SWEEPD_PROTOCOL_HH
